//! The benchmark programs of the software-assisted cache study.
//!
//! The paper evaluates nine numerical codes: four Perfect Club
//! applications (MDG, BDN, DYF, TRF), the NAS and Slalom benchmarks, the
//! Livermore Loops (LIV), and two numerical primitives — dense
//! matrix-vector multiply (MV) and sparse matrix-vector multiply (SpMV).
//! Figure 10a adds the most time-consuming subroutines of seven Perfect
//! Club codes (ADM, MDG, BDN, DYF, ARC, FLO, TRF) traced alone with full
//! instrumentation; §4.2/§4.3 add blocked MV and blocked+copied
//! matrix-matrix multiply.
//!
//! We do not have the Fortran sources or the Perfect Club inputs, so each
//! benchmark is a *structural stand-in*: a loop nest whose array sizes,
//! stride mix, CALL density and temporal/spatial signature match what the
//! paper reports for that code (Figures 1a, 1b and 4a). The cache
//! mechanisms only observe the reference stream and the tag bits, so this
//! preserves the behaviour the experiments measure; DESIGN.md documents
//! the substitution.
//!
//! Every builder returns a [`sac_loopir::Program`]; call
//! [`sac_loopir::Program::trace_default`] (or `.trace(&opts)`) to obtain
//! the tagged reference trace. Each workload takes a size parameter so
//! tests can run scaled-down instances; the `Default` parameters are the
//! paper-scale ones used by the figure harness.
//!
//! ```
//! use sac_workloads::mv;
//!
//! let program = mv::program(64);
//! let trace = program.trace_default();
//! assert!(trace.len() > 64 * 64);
//! ```

#![warn(missing_docs)]

pub mod blocked;
pub mod copying;
pub mod livermore;
pub mod mv;
pub mod nas;
pub mod perfect;
pub mod sharing;
pub mod slalom;
pub mod spmv;

use sac_loopir::Program;

/// Catalog entry describing one benchmark stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// What the stand-in computes and why it has that shape.
    pub description: &'static str,
    /// What the original benchmark was.
    pub original: &'static str,
}

/// Descriptions of the nine benchmarks, in figure order.
pub fn catalog() -> [WorkloadInfo; 9] {
    [
        WorkloadInfo {
            name: "MDG",
            description: "pair-interaction loops whose bodies CALL a potential \
routine (tags killed), plus small tagged update sweeps: mostly untagged",
            original: "Perfect Club molecular dynamics (liquid water)",
        },
        WorkloadInfo {
            name: "BDN",
            description: "filter-bank convolution over long signals with a \
CALL-killed feature pass: ~40% untagged, the rest temporal+spatial",
            original: "Perfect Club signal processing",
        },
        WorkloadInfo {
            name: "DYF",
            description: "strided row accumulator (temporal, NOT spatial) \
against polluting coefficient/state streams: the bounce-back showcase",
            original: "Perfect Club structural dynamics (DYFESM)",
        },
        WorkloadInfo {
            name: "TRF",
            description: "transpose (one side non-stride-1) + stride-1 scaling \
+ strided butterflies + a CALL-killed driver pass",
            original: "Perfect Club transform code",
        },
        WorkloadInfo {
            name: "NAS",
            description: "5-point Jacobi smoothing sweeps with copy-back over \
a grid 40x the cache; sweeps are driver loops (per-call analysis scope)",
            original: "NAS multigrid-style kernel",
        },
        WorkloadInfo {
            name: "Slalom",
            description: "right-looking Gaussian elimination + back-solve on a \
matrix 14x the cache: pivot row/column reuse against the update stream",
            original: "Slalom radiosity system solve",
        },
        WorkloadInfo {
            name: "LIV",
            description: "Livermore kernels K1/K3/K5/K7/K12 over ~8 KB vectors, \
each repeated in-routine: cross-repetition reuse at the cache boundary",
            original: "Livermore Loops",
        },
        WorkloadInfo {
            name: "MV",
            description: "dense matrix-vector multiply: each 6 KB column sweep \
of A flushes the 6 KB X vector reused N references later (the paper's \
running example)",
            original: "dense matrix-vector multiply",
        },
        WorkloadInfo {
            name: "SpMV",
            description: "CSC sparse matrix-vector multiply with a banded 3-D \
pattern; X tagged temporal by user directive (the compiler cannot see \
through the indirection)",
            original: "sparse matrix-vector multiply",
        },
    ]
}

/// The nine benchmarks of the main evaluation, in the paper's figure
/// order: MDG, BDN, DYF, TRF, NAS, Slalom, LIV, MV, SpMV.
///
/// Paper-scale instances (hundreds of thousands to a few million
/// references each).
pub fn benchset() -> Vec<Program> {
    vec![
        perfect::mdg(perfect::PerfectScale::Full),
        perfect::bdn(perfect::PerfectScale::Full),
        perfect::dyf(perfect::PerfectScale::Full),
        perfect::trf(perfect::PerfectScale::Full),
        nas::program(nas::Params::default()),
        slalom::program(slalom::Params::default()),
        livermore::program(livermore::Params::default()),
        mv::program(mv::DEFAULT_N),
        spmv::program(spmv::Params::default()),
    ]
}

/// Scaled-down instances of the nine benchmarks for tests and examples
/// (tens of thousands of references each).
pub fn benchset_small() -> Vec<Program> {
    vec![
        perfect::mdg(perfect::PerfectScale::Small),
        perfect::bdn(perfect::PerfectScale::Small),
        perfect::dyf(perfect::PerfectScale::Small),
        perfect::trf(perfect::PerfectScale::Small),
        nas::program(nas::Params::small()),
        slalom::program(slalom::Params::small()),
        livermore::program(livermore::Params::small()),
        mv::program(128),
        spmv::program(spmv::Params::small()),
    ]
}

/// The Figure 10a set: the most time-consuming subroutines of seven
/// Perfect Club codes, manually instrumented and traced alone (no CALL
/// kills, loop references dominate).
pub fn perfect_kernels() -> Vec<Program> {
    perfect::kernels()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchset_has_nine_named_programs() {
        let set = benchset_small();
        let names: Vec<&str> = set.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["MDG", "BDN", "DYF", "TRF", "NAS", "Slalom", "LIV", "MV", "SpMV"]
        );
    }

    #[test]
    fn every_small_benchmark_traces_cleanly() {
        for p in benchset_small() {
            let trace = p
                .trace(&sac_loopir::TraceOptions {
                    seed: 1,
                    gaps: false,
                    levels: false,
                })
                .unwrap_or_else(|e| panic!("{} failed to trace: {e}", p.name()));
            assert!(
                trace.len() > 1_000,
                "{} too small: {}",
                p.name(),
                trace.len()
            );
        }
    }

    #[test]
    fn catalog_matches_benchset_order() {
        let names: Vec<&str> = benchset_small()
            .iter()
            .map(|p| p.name().to_string().leak() as &str)
            .collect();
        let cat: Vec<&str> = catalog().iter().map(|w| w.name).collect();
        assert_eq!(names, cat);
    }

    #[test]
    fn no_shipped_program_is_provably_out_of_bounds() {
        for p in benchset_small()
            .into_iter()
            .chain(perfect_kernels())
            .chain([crate::blocked::program(crate::blocked::Params {
                n: 60,
                block: 20,
            })])
            .chain([crate::copying::program(crate::copying::Params {
                n: 8,
                ld: 10,
                block: 4,
                copying: true,
            })])
        {
            let verdict = p.validate();
            assert!(
                !matches!(verdict, sac_loopir::Verdict::OutOfBounds(_)),
                "{}: {verdict:?}",
                p.name()
            );
        }
    }

    #[test]
    fn kernel_set_has_seven_programs() {
        let set = perfect_kernels();
        let names: Vec<&str> = set.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["ADM", "MDG", "BDN", "DYF", "ARC", "FLO", "TRF"]);
    }
}
