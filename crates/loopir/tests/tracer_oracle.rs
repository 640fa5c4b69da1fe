//! The tracer against the naive oracle in `oracle/mod.rs` on the
//! workload programs: every entry (address, instruction id, kind, tags,
//! level, gap) must match. The test-scale suite runs by default; the 48
//! programs the benchmarks trace run at paper scale with `--ignored`
//! (about 43 M references per option set; use a release build).

mod oracle;

use sac_loopir::{Program, TraceOptions};

/// `(gaps, levels)` option sets every program is traced under.
const OPTION_SETS: [(bool, bool); 3] = [(true, false), (false, false), (true, true)];

/// Checks each program under every option set, program `i` with seed
/// `0x5AC0 + i`; returns the references compared.
fn check_all(programs: &[Program]) -> usize {
    let mut refs = 0;
    for (i, p) in programs.iter().enumerate() {
        for (gaps, levels) in OPTION_SETS {
            let opts = TraceOptions {
                seed: 0x5AC0 + i as u64,
                gaps,
                levels,
            };
            refs += oracle::check_large(p, &opts);
        }
    }
    refs
}

#[test]
fn small_suite_matches_the_oracle() {
    check_all(&sac_workloads::benchset_small());
}

/// The paper suite, the Figure 10a kernels, and the Figure 11a and 11b
/// programs at paper scale.
#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn paper_scale_programs_match_the_oracle() {
    use sac_workloads::{blocked, copying};
    let mut programs = sac_workloads::benchset();
    programs.extend(sac_workloads::perfect_kernels());
    let n = blocked::Params::default().n;
    for block in blocked::FIG11A_BLOCKS {
        programs.push(blocked::program(blocked::Params { n, block }));
    }
    for ld in copying::FIG11B_LDS {
        for copying in [false, true] {
            programs.push(copying::program(copying::Params {
                n: 64,
                ld,
                block: 32,
                copying,
            }));
        }
    }
    assert_eq!(programs.len(), 48);
    let refs = check_all(&programs);
    assert_eq!(refs, 3 * 43_242_446);
}
