//! The subcommands around single runs: run every workload in a child
//! process each, compare two result sets against the bounds in
//! `BENCHMARK.json`, measure the run-to-run spread, check determinism.

use crate::json::Json;
use crate::metrics::{
    median, quartiles_exclusive, same_exact, Better, END_TO_END, EXACT, PER_LAYER,
};
use crate::spec::WORKLOADS;
use crate::{out_root, Args, DEFAULT_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Run one workload in a child process (so peak RSS and allocator state are
/// per workload) and return its result object. The child's report is passed
/// through; the child has exited before this returns.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: &str,
    quiet: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating wbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale", scale])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning wbench for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, last)) => (report, last),
        None => ("", stdout.trim_end()),
    };
    if !quiet {
        println!("{report}");
    }
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line (exit {:?}): {e}",
            out.status.code()
        )
    })?;
    // A failed check exits non-zero but still reports; anything else with a
    // non-zero exit has no result line and was caught above.
    Ok(result)
}

fn passed(result: &Json) -> bool {
    result.get("correct").and_then(Json::as_bool) == Some(true)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = args.get("out").map_or_else(out_root, PathBuf::from);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `{"seed", "seconds", "traced", "workloads": {name: result}}` — what
/// `compare` reads.
fn result_set(seed: u64, seconds: u64, traced: bool, results: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("traced", Json::Bool(traced)),
        ("workloads", Json::Obj(results)),
    ])
}

/// `wbench all` / `wbench trace`.
pub fn all(args: &Args, traced: bool) -> Result<bool, String> {
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", DEFAULT_SECONDS)?;
    let scale = args.get("scale").unwrap_or("full");
    let dir = out_dir(args)?;
    let mut results = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let result = run_child(w.name, seed, seconds, traced, scale, false)?;
        ok &= passed(&result);
        let file = if traced {
            format!("{}.layers.json", w.name)
        } else {
            format!("{}.json", w.name)
        };
        write_json(&dir.join(file), &result)?;
        results.push((w.name.to_string(), result));
    }
    if !traced {
        let epoch = |w: &str| {
            results
                .iter()
                .find(|(n, _)| n == w)
                .and_then(|(_, r)| metric(r, "epoch_ms_p50"))
        };
        if let (Some(par), Some(serial)) = (epoch("join_refresh_par2"), epoch("join_refresh")) {
            println!(
                "scheduler overhead: join_refresh_par2 / join_refresh epoch_ms_p50 = {par:.1} / {serial:.1} = {:.3}",
                par / serial
            );
        }
    }
    let name = if traced { "trace" } else { "all" };
    let path = dir.join(format!("{name}-seed{seed}.json"));
    write_json(&path, &result_set(seed, seconds, traced, results))?;
    println!(
        "{} -> {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        path.display()
    );
    Ok(ok)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the current
/// directory (or `--bench PATH`).
fn load_bounds(args: &Args) -> Result<Vec<(String, f64)>, String> {
    let path = args.get("bench").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let bounds: Vec<(String, f64)> = doc
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    if bounds.is_empty() {
        return Err(format!("{path} declares no end_to_end bounds"));
    }
    Ok(bounds)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// By how much `new` is worse than `base`, as a share of `base` (negative =
/// better), and the verdict against `bound`. A sub-5 ms median may move by
/// 1 ms before it counts: below that the clock, not the code, is measured.
fn judge(
    base: f64,
    new: f64,
    spread: f64,
    unit: &str,
    better: Better,
    bound: f64,
) -> (f64, Verdict) {
    if !(base.is_finite() && new.is_finite()) || base == 0.0 {
        return (f64::NAN, Verdict::Unresolved);
    }
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let floor = if unit == "ms" && base < 5.0 {
        1.0 / base
    } else {
        0.0
    };
    let tolerance = bound.max(floor);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > tolerance {
        Verdict::Worse
    } else if worse_by < -tolerance {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// `wbench compare A.json B.json`: one row per workload × end-to-end metric.
/// `Ok(true)` when no cell is worse or unresolved.
pub fn compare(args: &Args) -> Result<bool, String> {
    let (Some(a), Some(b)) = (args.positional(1), args.positional(2)) else {
        return Err("usage: wbench compare A.json B.json".into());
    };
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let bounds = load_bounds(args)?;
    let cell = |set: &Json, w: &str, m: &str, field: &str| -> Option<f64> {
        set.get("workloads")?
            .get(w)?
            .get("metrics")?
            .get(m)?
            .get(field)?
            .as_f64()
    };
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == d.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", d.name))?;
            let (va, vb) = (
                cell(&a, w.name, d.name, "value").unwrap_or(f64::NAN),
                cell(&b, w.name, d.name, "value").unwrap_or(f64::NAN),
            );
            let spread = cell(&a, w.name, d.name, "spread")
                .unwrap_or(0.0)
                .max(cell(&b, w.name, d.name, "spread").unwrap_or(0.0));
            let (worse_by, verdict) = judge(va, vb, spread, d.unit, d.better, bound);
            clean &= matches!(verdict, Verdict::Better | Verdict::Same);
            println!(
                "{:<18} {:<30} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%  {verdict:?}",
                w.name,
                d.name,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    for name in EXACT {
        for w in &WORKLOADS {
            if let (Some(x), Some(y)) = (
                cell(&a, w.name, name, "value"),
                cell(&b, w.name, name, "value"),
            ) {
                if !same_exact(x, y) && a.get("seed") == b.get("seed") {
                    println!(
                        "exact metric {name} on {} differs on the same seed: {x} vs {y}",
                        w.name
                    );
                    clean = false;
                }
            }
        }
    }
    Ok(clean)
}

/// `wbench spread --sets N`: N sets on seeds 1..=N; per cell the median, and
/// the interquartile range as a share of it — the driver's own acceptance
/// statistic (Python's `statistics.quantiles(v, n=4)`).
pub fn spread(args: &Args) -> Result<bool, String> {
    let sets = args.num("sets", 10)?;
    if sets < 5 {
        return Err("--sets must be at least 5: quartiles of fewer runs say nothing".into());
    }
    let seconds = args.num("seconds", DEFAULT_SECONDS)?;
    let first_seed = args.num("seed", 1)?;
    let traced = args.get("trace") == Some("1");
    let bounds = if traced {
        Vec::new()
    } else {
        load_bounds(args)?
    };
    let dir = out_dir(args)?;
    let defs: &[_] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut ok = true;
    let mut out_sets = Vec::new();
    for w in &WORKLOADS {
        if args.get("workload").is_some_and(|only| only != w.name) {
            continue;
        }
        let mut runs = Vec::new();
        for seed in first_seed..first_seed + sets {
            let result = run_child(w.name, seed, seconds, traced, "full", true)?;
            ok &= passed(&result);
            runs.push(result);
        }
        println!(
            "{:<18} {:<36} {:>14} {:>8} {:>7}",
            w.name, "metric", "median", "IQR/med", "bound"
        );
        let mut cells = Vec::new();
        for d in defs {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric(r, d.name)).collect();
            if values.len() != runs.len() {
                return Err(format!("{}: {} missing from a run", w.name, d.name));
            }
            let med = median(&values);
            let (q1, q3) = quartiles_exclusive(&values);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let bound = bounds.iter().find(|(n, _)| n == d.name).map(|(_, b)| *b);
            // The driver exempts `setup_s` from the spread rule.
            let too_wide =
                |share: f64| d.name != "setup_s" && bound.is_some_and(|b| spread > b * share);
            let flag = if too_wide(1.0) {
                ok = false;
                "  !! wider than the bound"
            } else if too_wide(1.0 / 3.0) {
                "  ! above a third of the bound"
            } else {
                ""
            };
            println!(
                "{:<18} {:<36} {med:>14.4} {:>7.2}% {:>6}{flag}",
                "",
                d.name,
                spread * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0))
            );
            cells.push((
                d.name.to_string(),
                Json::obj([
                    ("value", Json::Num(med)),
                    ("unit", Json::Str(d.unit.into())),
                    ("spread", Json::Num(spread)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        out_sets.push((
            w.name.to_string(),
            Json::obj([("metrics", Json::Obj(cells))]),
        ));
    }
    let path = dir.join(format!("spread-{}sets-seed{first_seed}.json", sets));
    write_json(&path, &result_set(first_seed, seconds, traced, out_sets))?;
    println!("-> {}", path.display());
    Ok(ok)
}

/// `wbench check-determinism`: the same seed twice must give the same input
/// fingerprint and the same exact metrics, traced and untraced.
pub fn check_determinism(args: &Args) -> Result<bool, String> {
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", DEFAULT_SECONDS)?;
    let scale = args.get("scale").unwrap_or("smoke");
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let a = run_child(w.name, seed, seconds, traced, scale, true)?;
            let b = run_child(w.name, seed, seconds, traced, scale, true)?;
            ok &= passed(&a) && passed(&b);
            for name in EXACT {
                match (metric(&a, name), metric(&b, name)) {
                    (Some(x), Some(y)) if same_exact(x, y) => {
                        println!("{:<18} trace={} {name:<30} {x} ==", w.name, traced as u8);
                    }
                    (Some(x), Some(y)) => {
                        println!(
                            "{:<18} trace={} {name:<30} {x} != {y}  MISMATCH",
                            w.name, traced as u8
                        );
                        ok = false;
                    }
                    // An end-to-end name in the traced run, or the reverse.
                    _ => {}
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "deterministic"
        } else {
            "NOT deterministic"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_floor() {
        let lower = |base, new, spread| judge(base, new, spread, "ms", Better::Lower, 0.10).1;
        // 12% slower against a 10% bound is worse; 8% is the same.
        assert_eq!(lower(100.0, 112.0, 0.0), Verdict::Worse);
        assert_eq!(lower(100.0, 108.0, 0.0), Verdict::Same);
        assert_eq!(lower(100.0, 85.0, 0.0), Verdict::Better);
        // Throughput: lower is worse.
        assert_eq!(
            judge(100.0, 85.0, 0.0, "1/s", Better::Higher, 0.10).1,
            Verdict::Worse
        );
        // Sub-5 ms medians may move by 1 ms.
        assert_eq!(lower(2.0, 2.8, 0.0), Verdict::Same);
        assert_eq!(lower(2.0, 3.2, 0.0), Verdict::Worse);
        // A spread wider than the bound resolves nothing.
        assert_eq!(lower(100.0, 150.0, 0.3), Verdict::Unresolved);
        assert_eq!(lower(0.0, 1.0, 0.0), Verdict::Unresolved);
    }
}
