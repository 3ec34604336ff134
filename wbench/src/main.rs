//! `wbench` — the warehouse-cycle benchmark.
//!
//! Drives the engine only through public functions of `mvmqo-warehouse`,
//! `-core`, `-exec`, `-storage` and `-relalg`, with load from `mvmqo-tpcd`.
//! See `README.md` beside this crate for the metric definitions, the
//! workloads and the layer → end-to-end interaction table.
//!
//! ```text
//! wbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! wbench all   [--seed N] [--seconds S] [--out DIR]      every workload, one child process each
//! wbench trace [--seed N] [--seconds S] [--out DIR]      the traced run of every workload
//! wbench compare A.json B.json                           verdict per workload × end-to-end metric
//! wbench spread [--sets N] [--seconds S]                 run-to-run spread over N seeds
//! wbench check-determinism [--seed N]                    same seed twice ⇒ same inputs, same exact metrics
//! ```

mod json;
mod lifecycle;
mod metrics;
mod run;
mod shadow;
mod spec;
mod tools;
mod trace;
mod traced;

use json::Json;
use lifecycle::Ops;
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use spec::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// `BENCHMARK.json`'s `run_seconds`, the default of the tool subcommands.
pub const DEFAULT_SECONDS: u64 = 10;

/// Parsed `--key value` options (every option takes a value).
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut positional, mut options) = (Vec::new(), Vec::new());
        let mut it = args;
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                options.push((key.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} takes a whole number, got {v:?}")),
        }
    }

    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }
}

/// Where the benchmark writes: the build directory the driver chose, or
/// `target/` — both ignored by git. Never outside the checkout.
pub fn out_root() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("wbench")
}

/// The contract's result line.
pub fn result_json(values: &Values, defs: &[MetricDef], ops: Ops) -> Result<Json, String> {
    Ok(Json::obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", values.to_json(defs)?),
    ]))
}

/// One run of one workload. Prints every metric by name and unit, then the
/// result object as the last line. `Ok(true)` when every check passed.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let spec = spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", DEFAULT_SECONDS)?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let scale = match args.get("scale").unwrap_or("full") {
        "full" => Scale::Full,
        "smoke" => Scale::Smoke,
        other => return Err(format!("--scale takes full or smoke, got {other:?}")),
    };
    let spec = spec.scaled(scale);

    let root = out_root();
    let work = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let outcome = if traced {
        traced::traced(&spec, seed, seconds, scale, &work, &root)
    } else {
        run::end_to_end(&spec, seed, seconds, scale, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome.map_err(|e| e.to_string())?;

    let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "wbench {} seed={seed} seconds={seconds} trace={} (closed loop, 1 client, {} engine worker(s), host parallelism {})",
        spec.name,
        traced as u8,
        spec.workers,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for d in defs {
        if let Some(v) = outcome.values.get(d.name) {
            println!(
                "  {:<36} {v:>16.4} {:<10} ({} is better)",
                d.name,
                d.unit,
                d.better.as_str()
            );
        }
    }
    println!(
        "  operations: {} attempted, {} failed",
        outcome.ops.attempted, outcome.ops.failed
    );
    println!(
        "{}",
        result_json(&outcome.values, defs, outcome.ops)?.render()
    );
    Ok(outcome.ops.failed == 0)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.positional(0) {
        None => run_one(&args),
        Some("all") => tools::all(&args, false),
        Some("trace") => tools::all(&args, true),
        Some("compare") => tools::compare(&args),
        Some("spread") => tools::spread(&args),
        Some("check-determinism") => tools::check_determinism(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn scratch(tag: &str) -> PathBuf {
        let dir = out_root().join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `Values::to_json` fails on a declared metric that was not measured
    /// and on a measured one that is not declared, so `Ok` is both
    /// directions of "names emitted = names declared".
    #[test]
    fn every_workload_emits_every_end_to_end_metric_at_smoke_scale() {
        for w in &WORKLOADS {
            let dir = scratch(&format!("e2e-{}", w.name));
            let spec = w.scaled(Scale::Smoke);
            let out = run::end_to_end(&spec, 7, DEFAULT_SECONDS, Scale::Smoke, &dir)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(out.ops.failed, 0, "{} failed a check", w.name);
            let json = result_json(&out.values, &END_TO_END, out.ops).unwrap();
            assert_eq!(
                json.get("metrics").unwrap().fields().len(),
                END_TO_END.len()
            );
            for d in &END_TO_END {
                let v = out.values.get(d.name).unwrap();
                assert!(v != 0.0, "{}: {} is zero", w.name, d.name);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn every_workload_emits_every_layer_metric_and_a_sound_span_tree() {
        for w in &WORKLOADS {
            let dir = scratch(&format!("trace-{}", w.name));
            let spec = w.scaled(Scale::Smoke);
            let out = traced::traced(&spec, 7, DEFAULT_SECONDS, Scale::Smoke, &dir, &dir)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(out.ops.failed, 0, "{} failed a check", w.name);
            result_json(&out.values, &PER_LAYER, out.ops).unwrap();

            let text = std::fs::read_to_string(dir.join(format!("{}.trace.json", w.name))).unwrap();
            let doc = Json::parse(&text).unwrap();
            let spans = doc.get("spans").unwrap().as_arr();
            let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
            let name = |s: &Json| s.get("name").and_then(Json::as_str).unwrap().to_string();
            let parent = |s: &Json| s.get("parent").and_then(Json::as_f64).map(|p| p as usize);

            // One root; self times add up to it.
            assert_eq!(spans.iter().filter(|s| parent(s).is_none()).count(), 1);
            assert_eq!(name(&spans[0]), "run");
            let total: f64 = spans.iter().map(|s| num(s, "self_ns")).sum();
            assert_eq!(total, num(&spans[0], "end_ns") - num(&spans[0], "start_ns"));

            // Generator spans never sit inside a timed region.
            let timed =
                |n: &str| n == "cycle" || n.starts_with("query_") || n.starts_with("warehouse.");
            let mut generator_spans = 0;
            for s in spans.iter().filter(|s| name(s).starts_with("tpcd.")) {
                generator_spans += 1;
                let mut up = parent(s);
                while let Some(p) = up {
                    assert!(
                        !timed(&name(&spans[p])),
                        "{} inside {}",
                        name(s),
                        name(&spans[p])
                    );
                    up = parent(&spans[p]);
                }
            }
            assert!(generator_spans > 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS as f64)
        );
        assert_eq!(
            doc.get("paths").unwrap().as_arr(),
            [Json::Str("wbench".into())]
        );

        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let emitted = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), emitted(&END_TO_END));
        assert_eq!(declared("per_layer"), emitted(&PER_LAYER));

        for m in doc.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        for m in doc.get("per_layer").unwrap().as_arr() {
            assert!(m.get("bound").is_none());
        }
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                let f = |k: &str| w.get(k).unwrap().as_str().unwrap().to_string();
                (f("name"), f("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
        assert!(specs
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn join_refresh_par2_gets_byte_identical_inputs() {
        let a = spec::Inputs::generate(&WORKLOADS[0].scaled(Scale::Smoke), 3);
        let b = spec::Inputs::generate(&WORKLOADS[1].scaled(Scale::Smoke), 3);
        assert_eq!(a.fingerprint, b.fingerprint);
        let c = spec::Inputs::generate(&WORKLOADS[0].scaled(Scale::Smoke), 4);
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
