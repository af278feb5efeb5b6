//! Regenerates the **Theorem 1** measurement: the number of SMT oracle calls
//! grows logarithmically with the number of projection bits `|S|` — and
//! compares every oracle backend on the same sweep, reporting per-backend
//! encoder rebuilds and oracle wall time (the incremental backend's
//! `rebuilds` column is 0 by construction; the portfolio's sums its
//! rebuild-style workers).
//!
//! Usage: `cargo run -p pact-bench --bin oracle_calls --release [max_width]`

use pact::{HashFamily, Session};
use pact_bench::Backend;
use pact_ir::{Sort, TermManager};

fn main() {
    let max_width: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(14);

    println!(
        "backend,projection_bits,oracle_calls,cells_explored,calls_per_iteration,rebuilds,oracle_seconds,wall_seconds"
    );
    for backend in Backend::ALL {
        for width in (6..=max_width).step_by(2) {
            // A formula whose projected count is always half the space, so
            // the hashing path runs at every width.
            let mut tm = TermManager::new();
            let x = tm.mk_var("x", Sort::BitVec(width));
            let half = tm.mk_bv_const(1u128 << (width - 1), width);
            let f = tm.mk_bv_ule(half, x).unwrap();
            let session = Session::builder(tm)
                .assert(f)
                .project(x)
                .family(HashFamily::Xor)
                .iterations(3)
                .seed(9)
                .oracle_factory(backend.oracle_factory())
                .build();
            match session.and_then(|mut s| s.count()) {
                Ok(report) => {
                    let iters = report.stats.iterations.max(1) as f64;
                    println!(
                        "{},{},{},{},{:.1},{},{:.6},{:.6}",
                        backend.label(),
                        width,
                        report.stats.oracle_calls,
                        report.stats.cells_explored,
                        report.stats.cells_explored as f64 / iters,
                        report.stats.oracle.rebuilds,
                        report.stats.oracle_seconds,
                        report.stats.wall_seconds
                    );
                }
                Err(e) => eprintln!("{} width {width}: {e}", backend.label()),
            }
        }
    }
}
