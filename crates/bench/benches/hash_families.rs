//! Criterion bench behind the **§III-E ablation**: how much harder a single
//! hash-constrained oracle query becomes under each family.
//!
//! The paper's discussion attributes `H_xor`'s win to (a) native XOR
//! reasoning and (b) the bit-width blow-up of the word-level families; this
//! bench measures exactly that query-level cost.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};

use pact_hash::{generate, HashFamily};
use pact_ir::{Sort, TermManager};
use pact_solver::IncrementalContext;

fn bench_hash_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_constrained_query");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(6));
    for family in HashFamily::ALL {
        for &width in &[8u32, 12u32] {
            let id = BenchmarkId::new(family.name(), format!("w{width}"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let mut tm = TermManager::new();
                    let x = tm.mk_var("x", Sort::BitVec(width));
                    let y = tm.mk_var("y", Sort::BitVec(width));
                    let sum = tm.mk_bv_add(x, y).unwrap();
                    let c0 = tm.mk_bv_const(37 % (1 << width.min(20)), width);
                    let f = tm.mk_bv_ule(c0, sum).unwrap();
                    let mut rng = StdRng::seed_from_u64(5);
                    let mut ctx = IncrementalContext::new();
                    ctx.track_var(x);
                    ctx.track_var(y);
                    ctx.assert_term(f);
                    for _ in 0..3 {
                        let ell = if family == HashFamily::Xor { 1 } else { 4 };
                        let h = generate(&tm, &[x, y], ell, family, &mut rng);
                        h.assert_into(&mut ctx, &mut tm);
                    }
                    ctx.check(&mut tm).unwrap()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hash_query);
criterion_main!(benches);
