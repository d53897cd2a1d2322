//! Seeded input programs. The compiler only ever sees the generated
//! source text.
//!
//! The seed drives every program's coefficient stream and nothing else:
//! kernel counts, stencil shapes and domains — everything compile time
//! depends on — are fixed, so runs under different seeds measure the same
//! amount of work on different numbers.
//!
//! Every program is sized so that one compile of it takes 0.015–0.09 s.
//! The benchmark runs on a few cores of a shared host that is at full
//! speed for a few per cent of the time, a tenth of a second at once;
//! only a compile that short falls whole into such a moment a few times in
//! a run, which is what makes its fastest sample repeat from run to run
//! (README.md, **Steadiness**).

use sf_apps::{AppBuilder, AppConfig, PaperRow};
use sf_minicuda::ast::{Expr, Program};
use sf_minicuda::printer::print_program;
use sf_minicuda::visit::rewrite_exprs;

/// The default workload seed (the search crate's default, HPDC'15).
pub const DEFAULT_SEED: u64 = 20150615;

/// Kernels per synthetic chain: the `BENCH_cache` / `BENCH_search` shape,
/// a quarter as long.
pub const SYNTH_STAGES: usize = 12;

/// One program handed to the compiler.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub source: String,
}

/// One step of the splitmix64 generator.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decorrelates the per-program streams drawn from one seed.
fn mix(seed: u64, stream: u64) -> u64 {
    splitmix64(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Scale every floating literal of every kernel by a seeded factor in
/// [0.95, 1.05]. The paper analogs' generators take no seed, so this is
/// how the workload seed reaches them; signs, zeros and magnitudes (hence
/// stability of the time-stepped analogs) are preserved.
fn reseed_coefficients(program: &mut Program, seed: u64) {
    let mut state = seed;
    for kernel in &mut program.kernels {
        rewrite_exprs(&mut kernel.body, &mut |e| match e {
            Expr::Float(v) => {
                state = mix(state, 1);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                Some(Expr::Float(v * (0.95 + 0.10 * unit)))
            }
            _ => None,
        });
    }
}

fn paper_analog(name: &str, config: &AppConfig, seed: u64, stream: u64) -> Input {
    let mut app = sf_apps::app_by_name(name, config).expect("registered paper analog");
    reseed_coefficients(&mut app.program, mix(seed, stream));
    Input {
        name: name.to_string(),
        source: print_program(&app.program),
    }
}

/// The six paper analogs with `AppConfig::test()`'s kernel counts on a
/// 16×8×2 domain (one thread block a plane), in the paper's order.
pub fn paper_apps(seed: u64) -> Vec<Input> {
    let config = AppConfig {
        nx: 16,
        ny: 8,
        nz: 2,
        ..AppConfig::test()
    };
    ["scale-les", "homme", "fluam", "mitgcm", "awp-odc", "bcalm"]
        .iter()
        .enumerate()
        .map(|(i, name)| paper_analog(name, &config, seed, i as u64))
        .collect()
}

/// MITgcm and its time-stepped analog with paper-sized kernel counts
/// (`AppConfig::full()`) on a 32×8×2 domain, one thread block a plane:
/// the narrowest on which the time loop still folds at degree 4.
pub fn replay_apps(seed: u64) -> Vec<Input> {
    let config = AppConfig {
        nx: 32,
        ny: 8,
        nz: 2,
        ..AppConfig::full()
    };
    ["mitgcm", "mitgcm-ts"]
        .iter()
        .enumerate()
        .map(|(i, name)| paper_analog(name, &config, seed, 100 + i as u64))
        .collect()
}

/// `count` seeded chains of [`SYNTH_STAGES`] fusible pointwise stages.
/// `tag` keeps the kernel names (and cache keys) of two fleets apart.
pub fn synthetic_chains(seed: u64, tag: &str, count: usize) -> Vec<Input> {
    let config = AppConfig::test();
    (0..count)
        .map(|idx| {
            let mut b = AppBuilder::new(&config, mix(seed, 200 + idx as u64));
            b.array("u");
            b.array("s0");
            for stage in 0..SYNTH_STAGES {
                let prev = format!("s{stage}");
                let next = format!("s{}", stage + 1);
                b.array(&next);
                b.pointwise(&format!("{tag}{idx}_stage{stage}"), &[&prev, "u"], &next);
            }
            let app = b.build(PaperRow {
                name: "synthetic-chain",
                original_kernels: SYNTH_STAGES,
                arrays: SYNTH_STAGES + 2,
                target_kernels: SYNTH_STAGES,
                new_kernels: 0,
                speedup_low: 1.0,
                speedup_high: 10.0,
                fission_driven: false,
            });
            Input {
                name: format!("{tag}{idx}"),
                source: print_program(&app.program),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_other_numbers() {
        let a = synthetic_chains(7, "m", 2);
        let b = synthetic_chains(7, "m", 2);
        let c = synthetic_chains(8, "m", 2);
        assert_eq!(a[0].source, b[0].source);
        assert_eq!(a[1].source, b[1].source);
        assert_ne!(a[0].source, a[1].source, "members are distinct programs");
        assert_ne!(a[0].source, c[0].source);
        assert_eq!(
            a[0].source.matches("__global__").count(),
            SYNTH_STAGES,
            "structure does not depend on the seed"
        );

        let x = replay_apps(7);
        let y = replay_apps(8);
        assert_eq!(x[0].source, replay_apps(7)[0].source);
        assert_ne!(x[0].source, y[0].source);
        assert_eq!(x[0].source.lines().count(), y[0].source.lines().count());
    }
}
