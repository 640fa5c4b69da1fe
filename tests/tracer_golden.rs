//! Frozen tracer output: the length and `Trace::content_hash` of every
//! program the figures trace at test scale, under three option sets, plus
//! a digest of the gap sampler's first draws. `content_hash` covers the
//! address, instruction id, gap, tags, level and cpu of every entry, so
//! any change to an emitted byte fails here. The literals were recorded
//! before the tracer was rewritten for speed and must never be
//! regenerated to make a tracer change pass.

use sac_loopir::{Program, TraceOptions};
use sac_trace::GapModel;

/// `(gaps, levels)` option sets every program is traced under.
const OPTION_SETS: [(bool, bool); 3] = [(true, false), (false, false), (true, true)];

/// `(label, gaps, levels, len, content_hash)`, one row per program and
/// option set, in [`group`] order. Program `i` is traced with seed
/// `0x5AC0 + i`.
#[rustfmt::skip]
const GOLDEN: &[(&str, bool, bool, usize, u64)] = &[
    ("small/MDG", true, false, 31680, 0x4be93a0e351fe07f),
    ("small/MDG", false, false, 31680, 0xc6e0f36a4b2dbc8c),
    ("small/MDG", true, true, 31680, 0x4513d0ce52f5f4df),
    ("small/BDN", true, false, 139200, 0x6b2ff1b821ba1641),
    ("small/BDN", false, false, 139200, 0x4d08b67d67337272),
    ("small/BDN", true, true, 139200, 0x915ffefb993526c1),
    ("small/DYF", true, false, 100000, 0xd781651761c52e3d),
    ("small/DYF", false, false, 100000, 0xf62e78c4aa3e7e2a),
    ("small/DYF", true, true, 100000, 0x61aad096ed7c007d),
    ("small/TRF", true, false, 14074, 0x43e43edace8ef5a5),
    ("small/TRF", false, false, 14074, 0x8acbcd1280164813),
    ("small/TRF", true, true, 14074, 0xd8ea9c963a142115),
    ("small/NAS", true, false, 34608, 0xbb5a5461d4211a98),
    ("small/NAS", false, false, 34608, 0x953201a1e2c62e60),
    ("small/NAS", true, true, 34608, 0xd166b589e88e8798),
    ("small/Slalom", true, false, 149742, 0x835442bf395cfb44),
    ("small/Slalom", false, false, 149742, 0xb181f110c080ab19),
    ("small/Slalom", true, true, 149742, 0xcc8d7ea9a7808d04),
    ("small/LIV", true, false, 27592, 0xc603c28ca0292074),
    ("small/LIV", false, false, 27592, 0x47dc0e061f832d54),
    ("small/LIV", true, true, 27592, 0xb06158c15d7360b4),
    ("small/MV", true, false, 33024, 0x6eabbbe0644cacca),
    ("small/MV", false, false, 33024, 0x6b957d70ee233a6a),
    ("small/MV", true, true, 33024, 0x26d30ebc602b2cba),
    ("small/SpMV", true, false, 28517, 0x4ffc046c56f27e4f),
    ("small/SpMV", false, false, 28517, 0x94a73fe69a70dc97),
    ("small/SpMV", true, true, 28517, 0x85ef04e8781be71f),
    ("kernel/ADM", true, false, 190512, 0xba5d2b29b6cf6f8d),
    ("kernel/ADM", false, false, 190512, 0x9e08f73fdc30c003),
    ("kernel/ADM", true, true, 190512, 0x7aaf43cd8abd9bad),
    ("kernel/MDG", true, false, 484800, 0xb70f4b5192bb5d2c),
    ("kernel/MDG", false, false, 484800, 0xdb03e967f4ba81c1),
    ("kernel/MDG", true, true, 484800, 0x91258236e7c0552c),
    ("kernel/BDN", true, false, 408000, 0x683b37b23fee67f9),
    ("kernel/BDN", false, false, 408000, 0xdfd33167681252d4),
    ("kernel/BDN", true, true, 408000, 0x33381a1db261bac9),
    ("kernel/DYF", true, false, 900000, 0x2dfc851e87b61751),
    ("kernel/DYF", false, false, 900000, 0x6e1aa17320339529),
    ("kernel/DYF", true, true, 900000, 0x20a571c7f2f04671),
    ("kernel/ARC", true, false, 110592, 0x981e6509ecd574bc),
    ("kernel/ARC", false, false, 110592, 0xad0ad7f6deec76bc),
    ("kernel/ARC", true, true, 110592, 0x854dec4bd15dc39c),
    ("kernel/FLO", true, false, 83984, 0xb165332483eaa4a3),
    ("kernel/FLO", false, false, 83984, 0x01091d412c466d14),
    ("kernel/FLO", true, true, 83984, 0x404e7dc22bd57ae3),
    ("kernel/TRF", true, false, 174988, 0xfa39c14a50471f55),
    ("kernel/TRF", false, false, 174988, 0x3b8930a465aaac6a),
    ("kernel/TRF", true, true, 174988, 0xad4f749e5848e155),
    ("blocked/B=10", true, false, 126720, 0x879a38df455b1703),
    ("blocked/B=10", false, false, 126720, 0x1346bec6922139e9),
    ("blocked/B=10", true, true, 126720, 0x99cf363287d54de3),
    ("blocked/B=20", true, false, 120960, 0xf39ab1444f7dc86a),
    ("blocked/B=20", false, false, 120960, 0x0e62489f2af20044),
    ("blocked/B=20", true, true, 120960, 0xa9e9776dea3fdfea),
    ("blocked/B=30", true, false, 119040, 0xf009dbcf5acfb7a4),
    ("blocked/B=30", false, false, 119040, 0x737b603de2342d03),
    ("blocked/B=30", true, true, 119040, 0x94722eb6e93a9eb4),
    ("blocked/B=40", true, false, 118080, 0x94cfd5eebbdbe927),
    ("blocked/B=40", false, false, 118080, 0x100bfd42673bb4df),
    ("blocked/B=40", true, true, 118080, 0xa217ab6a5ec3c627),
    ("blocked/B=60", true, false, 117120, 0x3b61dce0f9fa7841),
    ("blocked/B=60", false, false, 117120, 0xe5b9b8da09cf40ab),
    ("blocked/B=60", true, true, 117120, 0x8374433aa3275131),
    ("blocked/B=120", true, false, 116160, 0x1ebc6c734685db2b),
    ("blocked/B=120", false, false, 116160, 0xc792cb430af24137),
    ("blocked/B=120", true, true, 116160, 0x55cbe611e22fbf1b),
    ("blocked/B=240", true, false, 115680, 0xb6d0083c8d4d3e68),
    ("blocked/B=240", false, false, 115680, 0x4d7f19639e57064d),
    ("blocked/B=240", true, true, 115680, 0xfd226f803afc2738),
    ("copying/ld=116/copy=false", true, false, 69632, 0x8235aab4b8d71f47),
    ("copying/ld=116/copy=false", false, false, 69632, 0x5922dcc58b50a95c),
    ("copying/ld=116/copy=false", true, true, 69632, 0x624c2e3560d2ea87),
    ("copying/ld=116/copy=true", true, false, 71680, 0xe020d526842e66ba),
    ("copying/ld=116/copy=true", false, false, 71680, 0xe826f2731d266fd4),
    ("copying/ld=116/copy=true", true, true, 71680, 0xde7096762ccec8fa),
    ("copying/ld=117/copy=false", true, false, 69632, 0xc6b6f6d3b45909a5),
    ("copying/ld=117/copy=false", false, false, 69632, 0xc81cd3d196112c04),
    ("copying/ld=117/copy=false", true, true, 69632, 0x4ab6d769c5357525),
    ("copying/ld=117/copy=true", true, false, 71680, 0xaec1dfe4450bd91c),
    ("copying/ld=117/copy=true", false, false, 71680, 0x820d096c6cda2d4c),
    ("copying/ld=117/copy=true", true, true, 71680, 0x0966d3d7cb8acffc),
    ("copying/ld=118/copy=false", true, false, 69632, 0xedb7a9432c1f6769),
    ("copying/ld=118/copy=false", false, false, 69632, 0xec6b880c7e84e5bc),
    ("copying/ld=118/copy=false", true, true, 69632, 0xca3a49cdbcbfb249),
    ("copying/ld=118/copy=true", true, false, 71680, 0x8b1b1f94dee9c9c3),
    ("copying/ld=118/copy=true", false, false, 71680, 0x9139ae42a4be3c04),
    ("copying/ld=118/copy=true", true, true, 71680, 0x9e449381cea494e3),
    ("copying/ld=119/copy=false", true, false, 69632, 0x5181ee38d8fce153),
    ("copying/ld=119/copy=false", false, false, 69632, 0x942b6656aca55cc4),
    ("copying/ld=119/copy=false", true, true, 69632, 0x3ca451074e12b573),
    ("copying/ld=119/copy=true", true, false, 71680, 0xe09caab8020c7637),
    ("copying/ld=119/copy=true", false, false, 71680, 0x8d2c9fb74c68b0c4),
    ("copying/ld=119/copy=true", true, true, 71680, 0x88d696dee0003097),
    ("copying/ld=120/copy=false", true, false, 69632, 0x6ac04120927bc72d),
    ("copying/ld=120/copy=false", false, false, 69632, 0xf8b2266e34d2e07c),
    ("copying/ld=120/copy=false", true, true, 69632, 0x13c45651d138342d),
    ("copying/ld=120/copy=true", true, false, 71680, 0x29418e3bf038fbf9),
    ("copying/ld=120/copy=true", false, false, 71680, 0x02ab34b123883da4),
    ("copying/ld=120/copy=true", true, true, 71680, 0x5ffb4f44b9842919),
    ("copying/ld=121/copy=false", true, false, 69632, 0x5a9a852a4c5fa415),
    ("copying/ld=121/copy=false", false, false, 69632, 0xbf23a171a46d535c),
    ("copying/ld=121/copy=false", true, true, 69632, 0x4d2c90da16794b55),
    ("copying/ld=121/copy=true", true, false, 71680, 0x92a468ede108c56f),
    ("copying/ld=121/copy=true", false, false, 71680, 0x13aad3cf404a9a04),
    ("copying/ld=121/copy=true", true, true, 71680, 0x3d07a34810ab34af),
    ("copying/ld=122/copy=false", true, false, 69632, 0xc29bc199608ce587),
    ("copying/ld=122/copy=false", false, false, 69632, 0x3414cba89f02b164),
    ("copying/ld=122/copy=false", true, true, 69632, 0x6002fe2f2a61f6c7),
    ("copying/ld=122/copy=true", true, false, 71680, 0x53f1755a5c74fbba),
    ("copying/ld=122/copy=true", false, false, 71680, 0x8d12e3acf1bbe064),
    ("copying/ld=122/copy=true", true, true, 71680, 0x29b95c896906e59a),
    ("copying/ld=123/copy=false", true, false, 69632, 0x7b9468f08e9d4298),
    ("copying/ld=123/copy=false", false, false, 69632, 0x8a0c57889df8d324),
    ("copying/ld=123/copy=false", true, true, 69632, 0xf7590cbd2b9e4398),
    ("copying/ld=123/copy=true", true, false, 71680, 0x4e8be0d527ee8b15),
    ("copying/ld=123/copy=true", false, false, 71680, 0x9e9666b6ddb35310),
    ("copying/ld=123/copy=true", true, true, 71680, 0xfab6e3f6ba4a95f5),
    ("copying/ld=124/copy=false", true, false, 69632, 0xeb041af9c2926c0f),
    ("copying/ld=124/copy=false", false, false, 69632, 0x541e1d2b4457b1bc),
    ("copying/ld=124/copy=false", true, true, 69632, 0x4a6d9cfd272b504f),
    ("copying/ld=124/copy=true", true, false, 71680, 0x0051f5418a86e95b),
    ("copying/ld=124/copy=true", false, false, 71680, 0x72cecce5c75cb2d4),
    ("copying/ld=124/copy=true", true, true, 71680, 0xccc3d25ce24a675b),
    ("copying/ld=125/copy=false", true, false, 69632, 0x5fdfc50f86de0d8f),
    ("copying/ld=125/copy=false", false, false, 69632, 0x0386d9610ab26bec),
    ("copying/ld=125/copy=false", true, true, 69632, 0x5894683f698abbaf),
    ("copying/ld=125/copy=true", true, false, 71680, 0xbb311cddc747d653),
    ("copying/ld=125/copy=true", false, false, 71680, 0xe7e852ca60a77e88),
    ("copying/ld=125/copy=true", true, true, 71680, 0xc21cd579fd0089f3),
    ("copying/ld=126/copy=false", true, false, 69632, 0x8a0dc64fdfae6754),
    ("copying/ld=126/copy=false", false, false, 69632, 0x0ba34d2b56919ca4),
    ("copying/ld=126/copy=false", true, true, 69632, 0x336c741183816d14),
    ("copying/ld=126/copy=true", true, false, 71680, 0xf075488d9f54dc6d),
    ("copying/ld=126/copy=true", false, false, 71680, 0x3c2a8bb92e47ca4c),
    ("copying/ld=126/copy=true", true, true, 71680, 0x722538a4efa5240d),
];

/// `(seed, FNV-1a digest of the first 100k draws as little-endian u32)`.
const GAP_GOLDEN: [(u64, u64); 3] = [
    (0x0, 0xad74ff478b97b449),
    (0x5ac, 0x4172f1ef85beb68d),
    (0xffffffffffffffff, 0xe23dafa900e4bc7a),
];

/// One group of pinned programs, labelled uniquely; `first` is the
/// group's offset in [`GOLDEN`]'s program order (which fixes the seeds).
fn group(name: &str) -> (usize, Vec<(String, Program)>) {
    let mut out = Vec::new();
    let first = match name {
        "small" => {
            for p in sac_workloads::benchset_small() {
                out.push((format!("small/{}", p.name()), p));
            }
            0
        }
        "kernel" => {
            for p in sac_workloads::perfect_kernels() {
                out.push((format!("kernel/{}", p.name()), p));
            }
            9
        }
        // The programs `fig11a(true)` traces.
        "blocked" => {
            for block in [10, 20, 30, 40, 60, 120, 240] {
                let p = sac_workloads::blocked::program(sac_workloads::blocked::Params {
                    n: 240,
                    block,
                });
                out.push((format!("blocked/B={block}"), p));
            }
            16
        }
        // The programs `fig11b(true)` traces.
        "copying" => {
            for ld in sac_workloads::copying::FIG11B_LDS {
                for copying in [false, true] {
                    let p = sac_workloads::copying::program(sac_workloads::copying::Params {
                        n: 32,
                        ld,
                        block: 16,
                        copying,
                    });
                    out.push((format!("copying/ld={ld}/copy={copying}"), p));
                }
            }
            23
        }
        _ => unreachable!("unknown group {name}"),
    };
    (first, out)
}

/// Traces every program of `name` under every option set and compares
/// with [`GOLDEN`], reporting all mismatches at once.
fn check_group(name: &str) {
    let (first, programs) = group(name);
    let mut mismatches = Vec::new();
    for (k, (label, p)) in programs.iter().enumerate() {
        let i = first + k;
        for (o, (gaps, levels)) in OPTION_SETS.into_iter().enumerate() {
            let row = GOLDEN[i * OPTION_SETS.len() + o];
            assert_eq!((row.0, row.1, row.2), (label.as_str(), gaps, levels));
            let t = p
                .trace(&TraceOptions {
                    seed: 0x5AC0 + i as u64,
                    gaps,
                    levels,
                })
                .unwrap_or_else(|e| panic!("{label} failed to trace: {e}"));
            if (t.len(), t.content_hash()) != (row.3, row.4) {
                mismatches.push(format!(
                    "{label} gaps={gaps} levels={levels}: len {} hash {:#018x}, golden len {} hash {:#018x}",
                    t.len(),
                    t.content_hash(),
                    row.3,
                    row.4
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn golden_covers_every_program_and_option_set() {
    let total: usize = ["small", "kernel", "blocked", "copying"]
        .iter()
        .map(|g| group(g).1.len())
        .sum();
    assert_eq!(GOLDEN.len(), total * OPTION_SETS.len());
}

#[test]
fn small_benchset_traces_are_frozen() {
    check_group("small");
}

#[test]
fn perfect_kernel_traces_are_frozen() {
    check_group("kernel");
}

#[test]
fn fig11a_blocked_traces_are_frozen() {
    check_group("blocked");
}

#[test]
fn fig11b_copying_traces_are_frozen() {
    check_group("copying");
}

#[test]
fn gap_sampler_draws_are_frozen() {
    for (seed, want) in GAP_GOLDEN {
        let mut m = GapModel::seeded(seed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..100_000 {
            for b in m.sample().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, want, "seed {seed:#x}");
    }
}
