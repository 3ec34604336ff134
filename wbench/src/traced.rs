//! The traced run: the same life-cycle with a span around every engine call,
//! an untraced twin engine fed the same inputs (for the tracing overhead),
//! and the shadow pipeline that times each layer at its own boundary.
//! Yields the per-layer metrics; the end-to-end metrics always come from the
//! untraced run.

use crate::json::Json;
use crate::lifecycle::{
    answer_check, build, cycle, durability, next_deltas, probe_burst, query_round,
    settle_allocator, Ctx, CycleSample, Engine, Fatal,
};
use crate::metrics::{median, ms, quantile, Values};
use crate::run::Outcome;
use crate::shadow::Shadow;
use crate::spec::{Inputs, Scale, Spec, WARMUP_CYCLES};
use crate::trace::{Phase, Tracer, NO_CYCLE};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_storage::delta::DeltaSet;
use mvmqo_warehouse::{EpochReport, PlanMode};
use std::path::Path;

/// The traced run drives three pipelines per cycle (traced engine, untraced
/// twin, shadow with two executor schedulings), so it measures a quarter of
/// the cycles of the end-to-end run, never fewer than 4.
fn traced_cycles(spec: &Spec, seconds: u64, scale: Scale) -> u64 {
    match scale {
        Scale::Full => (spec.cycles(seconds, scale) / 4).max(4),
        Scale::Smoke => 3,
    }
}

/// The engines and the shadow, advanced in lock-step on one delta stream.
struct Rig<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    /// Spans on.
    ctx: Ctx,
    traced: Engine,
    /// Spans off: the same calls on the same inputs.
    twin_ctx: Ctx,
    twin: Engine,
    shadow: Shadow,
}

struct RigCycle {
    traced_ms: f64,
    twin_ms: f64,
    tuples: usize,
    /// Rows the traced engine served over both query rounds.
    query_rows: usize,
    report: EpochReport,
}

impl Rig<'_> {
    fn cycle(&mut self, queries: bool) -> Result<RigCycle, Fatal> {
        let deltas = next_deltas(&mut self.ctx, self.spec, self.inputs, &mut self.traced)?;
        let c = self.traced.next_cycle as i64;
        let swaps = self.spec.swaps_per_cycle;
        let dropped: Vec<String> = self
            .traced
            .wh
            .views()
            .iter()
            .take(swaps)
            .map(|v| v.name.clone())
            .collect();
        // Alternate which engine goes first, so neither always runs on the
        // caches the other warmed.
        let ((t, query_rows), (w, _)) = if c % 2 == 0 {
            let t = self.engine_cycle(true, &deltas, queries)?;
            (t, self.engine_cycle(false, &deltas, queries)?)
        } else {
            let w = self.engine_cycle(false, &deltas, queries)?;
            (self.engine_cycle(true, &deltas, queries)?, w)
        };
        // On a churn workload the engine dropped its oldest views and
        // registered new last ones; the shadow optimizer follows.
        let views = self.traced.wh.views();
        let added = views[views.len() - swaps..].to_vec();
        let swapped: Vec<(String, ViewDef)> = dropped.into_iter().zip(added).collect();
        self.shadow_cycle(c, &deltas, swapped, t.report.replanned.is_some())?;
        Ok(RigCycle {
            traced_ms: ms(t.total()),
            twin_ms: ms(w.total()),
            tuples: t.tuples,
            query_rows,
            report: t.report,
        })
    }

    fn engine_cycle(
        &mut self,
        traced: bool,
        deltas: &DeltaSet,
        queries: bool,
    ) -> Result<(CycleSample, usize), Fatal> {
        let (ctx, eng) = if traced {
            (&mut self.ctx, &mut self.traced)
        } else {
            (&mut self.twin_ctx, &mut self.twin)
        };
        let s = cycle(ctx, self.spec, eng, deltas, true)?;
        let mut rows = 0;
        if queries {
            settle_allocator();
            rows += query_round(ctx, eng, "query_first")?.1;
            rows += query_round(ctx, eng, "query_repeat")?.1;
        }
        Ok((s, rows))
    }

    fn shadow_cycle(
        &mut self,
        c: i64,
        deltas: &DeltaSet,
        swapped: Vec<(String, ViewDef)>,
        replanned: bool,
    ) -> Result<(), Fatal> {
        let tr = &mut self.ctx.tracer;
        let token = tr.enter("shadow", c);
        for (dropped, added) in swapped {
            self.shadow.remove_view(tr, c, &dropped);
            self.shadow.add_view(tr, c, added);
        }
        self.shadow.ingest(tr, c, deltas)?;
        self.shadow.epoch(tr, c, deltas, replanned)?;
        tr.exit(token);
        Ok(())
    }
}

pub fn traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    scale: Scale,
    work: &Path,
    out_root: &Path,
) -> Result<Outcome, Fatal> {
    let cycles = traced_cycles(spec, seconds, scale);
    let inputs = Inputs::generate(spec, seed);
    let mut ctx = Ctx::new(true);
    let root = ctx.tracer.enter("run", NO_CYCLE);
    let mut twin_ctx = Ctx::new(false);

    // A: build all three pipelines, then warm them up in lock-step.
    let (traced_eng, _) = build(&mut ctx, spec, &inputs, &work.join("wal"))?;
    let (twin, _) = build(&mut twin_ctx, spec, &inputs, &work.join("wal-twin"))?;
    let mut shadow = Shadow::new(spec, &inputs, &work.join("shadow"))?;
    for view in inputs.views[..spec.base_views].iter().cloned() {
        shadow.add_view(&mut ctx.tracer, NO_CYCLE, view);
    }
    let mut rig = Rig {
        spec,
        inputs: &inputs,
        ctx,
        traced: traced_eng,
        twin_ctx,
        twin,
        shadow,
    };
    for _ in 0..WARMUP_CYCLES {
        rig.cycle(false)?;
    }

    // B: the measured window.
    let replans_in_setup = rig.traced.wh.replans().len();
    rig.ctx.tracer.set_phase(Phase::Window);
    rig.shadow.counting = true;
    let (mut traced_ms, mut twin_ms, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tuples, mut query_rows) = (0, 0);
    for _ in 0..cycles {
        let c = rig.cycle(true)?;
        traced_ms.push(c.traced_ms);
        twin_ms.push(c.twin_ms);
        tuples += c.tuples;
        query_rows += c.query_rows;
        reports.push(c.report);
    }
    rig.shadow.counting = false;
    let Rig {
        mut ctx,
        traced: mut eng,
        twin_ctx,
        twin,
        mut shadow,
        ..
    } = rig;
    drop(twin);
    let plan = eng
        .wh
        .current_report()
        .ok_or_else(|| Fatal("no plan installed after the window".into()))?;
    let plan_counts = (
        plan.dag_eq_nodes,
        plan.dag_op_nodes,
        plan.chosen_mats.len(),
        plan.chosen_indices.len(),
        plan.total_cost,
        plan.nogreedy_cost,
    );

    // C: the probe, on the engine and on the shadow optimizer; and one
    // statistics-drift replan, so that line has a sample on every workload.
    probe_burst(&mut ctx, &inputs, &mut eng.wh, spec.probe_rounds)?;
    for _ in 0..spec.probe_rounds {
        shadow.add_view(&mut ctx.tracer, NO_CYCLE, inputs.extra.clone());
        shadow.remove_view(&mut ctx.tracer, NO_CYCLE, &inputs.extra.name);
    }
    shadow.replan(&mut ctx.tracer, NO_CYCLE, None, true);
    let storage = shadow.finish(&mut ctx.tracer, &inputs, &work.join("shadow"))?;

    let replans = eng.wh.replans()[replans_in_setup..].to_vec();
    let epochs_aborted = eng.wh.epochs_aborted();

    // D and E on the traced engine, once each.
    answer_check(&mut ctx, &eng)?;
    let d = durability(&mut ctx, spec, &inputs, eng, &work.join("wal"), 1, 0)?;
    ctx.tracer.exit(root);

    let tr = &ctx.tracer;
    let window = |name: &str| tr.ms(name, &[Phase::Window]);
    let per_cycle = |name: &str| tr.per_cycle_ms(name, Phase::Window);
    let cycle_median = |name: &str| median(&per_cycle(name).into_values().collect::<Vec<_>>());
    let all_phases = |name: &str| tr.ms(name, &Phase::ALL);
    let outside_setup = |name: &str| tr.ms(name, &[Phase::Window, Phase::Probe]);

    // run_epoch minus what the layers below account for.
    let exec_by_cycle = per_cycle("exec.execute_epoch");
    let restat_by_cycle = per_cycle("core.plan_restat");
    let commit_by_cycle = per_cycle("storage.wal_commit");
    let overhead: Vec<f64> = per_cycle("warehouse.run_epoch")
        .iter()
        .map(|(c, run)| {
            let part = |m: &std::collections::BTreeMap<i64, f64>| m.get(c).copied().unwrap_or(0.0);
            let commit = if spec.wal_in_window {
                part(&commit_by_cycle)
            } else {
                0.0
            };
            run - part(&exec_by_cycle) - part(&restat_by_cycle) - commit
        })
        .collect();

    let mut query_rounds = window("query_first");
    query_rounds.extend(window("query_repeat"));
    let exec_ms = window("exec.execute_epoch");
    // Geometric mean of the per-cycle ratios over an even number of cycles,
    // so the alternating run order cancels.
    let (serial, parallel) = (window("exec.ratio_serial"), window("exec.ratio_parallel"));
    let pairs = serial.len().min(parallel.len()) & !1;
    let log_ratio: f64 = (0..pairs).map(|i| (parallel[i] / serial[i]).ln()).sum();
    let par_vs_serial = (log_ratio / pairs as f64).exp();
    let wal_by_cycle: Vec<f64> = {
        let mut m = per_cycle("storage.wal_append");
        for (c, v) in &commit_by_cycle {
            *m.entry(*c).or_insert(0.0) += v;
        }
        m.into_values().collect()
    };
    let counts = &shadow.window;

    let mut v = Values::default();
    v.set(
        "trace_overhead_pct",
        (median(&traced_ms) / median(&twin_ms) - 1.0) * 100.0,
    );

    v.set("warehouse.ingest_ms", cycle_median("warehouse.ingest"));
    v.set("warehouse.ingest_tuples", tuples as f64);
    v.set(
        "warehouse.run_epoch_ms",
        median(&window("warehouse.run_epoch")),
    );
    v.set("warehouse.epoch_overhead_ms", median(&overhead));
    let cold = replans.iter().filter(|r| r.mode == PlanMode::Cold).count();
    v.set("warehouse.replans_cold", cold as f64);
    v.set(
        "warehouse.replans_incremental",
        (replans.len() - cold) as f64,
    );
    v.set(
        "warehouse.replan_ms",
        median(&replans.iter().map(|r| ms(r.elapsed)).collect::<Vec<_>>()),
    );
    v.set(
        "warehouse.register_view_ms",
        median(&outside_setup("warehouse.register_view")),
    );
    v.set(
        "warehouse.drop_view_ms",
        median(&outside_setup("warehouse.drop_view")),
    );
    v.set("warehouse.query_ms", median(&query_rounds));
    v.set(
        "warehouse.query_rows_per_ms",
        query_rows as f64 / query_rounds.iter().sum::<f64>(),
    );
    v.set(
        "warehouse.save_ms",
        median(&d.save.iter().map(|x| ms(*x)).collect::<Vec<_>>()),
    );
    v.set(
        "warehouse.recover_ms",
        median(&d.recover.iter().map(|x| ms(*x)).collect::<Vec<_>>()),
    );
    v.set(
        "warehouse.recover_replayed_records",
        d.replayed_records as f64,
    );
    v.set(
        "warehouse.setup_builds",
        reports.iter().map(|r| r.setup_builds).sum::<usize>() as f64,
    );
    v.set(
        "warehouse.total_builds",
        reports.iter().map(|r| r.total_builds).sum::<usize>() as f64,
    );
    v.set(
        "warehouse.forced_recomputes",
        reports.iter().map(|r| r.forced_recomputes).sum::<usize>() as f64,
    );
    v.set("warehouse.epochs_aborted", epochs_aborted as f64);
    v.set(
        "warehouse.cost_estimate_ratio",
        median(
            &reports
                .iter()
                .map(|r| r.executed_seconds / r.estimated_cost)
                .collect::<Vec<_>>(),
        ),
    );
    v.set("warehouse.cycle_ms_p90", quantile(&traced_ms, 0.9));

    v.set("core.add_view_ms", median(&outside_setup("core.add_view")));
    v.set(
        "core.remove_view_ms",
        median(&outside_setup("core.remove_view")),
    );
    v.set("core.plan_cold_ms", median(&all_phases("core.plan_cold")));
    v.set(
        "core.plan_incremental_ms",
        median(&outside_setup("core.plan_incremental")),
    );
    v.set(
        "core.plan_restat_ms",
        median(&all_phases("core.plan_restat")),
    );
    v.set("core.dag_eq_nodes", plan_counts.0 as f64);
    v.set("core.dag_op_nodes", plan_counts.1 as f64);
    v.set(
        "core.benefit_evaluations",
        shadow.benefit_evaluations as f64,
    );
    v.set(
        "core.full_slot_recomputes",
        shadow.full_slot_recomputes as f64,
    );
    v.set(
        "core.diff_slot_recomputes",
        shadow.diff_slot_recomputes as f64,
    );
    v.set("core.chosen_mats", plan_counts.2 as f64);
    v.set("core.chosen_indices", plan_counts.3 as f64);
    v.set("core.est_cost_greedy", plan_counts.4);
    v.set("core.est_cost_nogreedy", plan_counts.5);

    v.set("exec.execute_epoch_ms", median(&exec_ms));
    v.set(
        "exec.setup_epoch_ms",
        median(&all_phases("exec.setup_epoch")),
    );
    v.set("exec.modeled_s", counts.meter.seconds);
    v.set(
        "exec.tuples_processed",
        counts.meter.tuples_processed as f64,
    );
    v.set("exec.blocks_io", counts.meter.blocks_io as f64);
    v.set("exec.random_pages", counts.meter.random_pages as f64);
    v.set(
        "exec.delta_tuples_per_ms",
        counts.delta_tuples as f64 / exec_ms.iter().sum::<f64>(),
    );
    v.set("exec.workers", shadow.workers() as f64);
    v.set("exec.par_vs_serial_ratio", par_vs_serial);
    v.set("exec.total_builds", counts.total_builds as f64);
    v.set("exec.forced_recomputes", counts.forced_recomputes as f64);
    v.set("exec.errors", shadow.exec_errors as f64);

    v.set("storage.wal_append_ms", median(&wal_by_cycle));
    v.set("storage.wal_records", storage.wal_records as f64);
    v.set("storage.wal_bytes", storage.wal_bytes as f64);
    v.set(
        "storage.wal_scan_ms",
        median(&all_phases("storage.wal_scan")),
    );
    v.set("storage.db_clone_ms", median(&window("storage.db_clone")));
    v.set(
        "storage.apply_delta_ms",
        median(&window("storage.apply_delta")),
    );
    v.set("storage.apply_delta_tuples", counts.delta_tuples as f64);
    v.set(
        "storage.validate_delta_ms",
        cycle_median("storage.validate_delta"),
    );
    v.set(
        "storage.index_build_ms",
        median(&all_phases("storage.index_build")),
    );
    v.set(
        "storage.snapshot_write_ms",
        median(&all_phases("storage.snapshot_write")),
    );
    v.set(
        "storage.snapshot_read_ms",
        median(&all_phases("storage.snapshot_read")),
    );
    v.set("storage.snapshot_bytes", storage.snapshot_bytes as f64);

    v.set(
        "relalg.codec_encode_ms",
        median(&all_phases("relalg.codec_encode")),
    );
    v.set(
        "relalg.codec_decode_ms",
        median(&all_phases("relalg.codec_decode")),
    );
    v.set("relalg.codec_bytes", storage.codec_bytes as f64);
    v.set("relalg.from_rows_ms", cycle_median("relalg.from_rows"));
    v.set("relalg.to_rows_ms", cycle_median("relalg.to_rows"));
    v.set("relalg.bridge_rows", counts.bridge_rows as f64);

    v.set("tpcd.generate_db_ms", ms(inputs.generate_db));
    v.set(
        "tpcd.generate_deltas_ms",
        median(&window("tpcd.generate_deltas")),
    );
    v.set("tpcd.input_fingerprint", d.fingerprint.as_metric());

    let mut ops = ctx.ops;
    ops.attempted += twin_ctx.ops.attempted;
    ops.failed += twin_ctx.ops.failed;

    let mut notes = layer_shares(tr, spec, cycles);
    let trace_path = out_root.join(format!("{}.trace.json", spec.name));
    write_trace(&trace_path, tr)?;
    notes.push(format!(
        "{} spans written to {}",
        tr.spans().len(),
        trace_path.display()
    ));
    Ok(Outcome {
        values: v,
        ops,
        notes,
    })
}

/// Where the window's time went, by layer self time — the check that each
/// workload stresses the layer it was built for.
fn layer_shares(tr: &Tracer, spec: &Spec, cycles: u64) -> Vec<String> {
    let cycle_total: f64 = tr.ms("cycle", &[Phase::Window]).iter().sum();
    let run_epoch: f64 = tr.ms("warehouse.run_epoch", &[Phase::Window]).iter().sum();
    let exec: f64 = tr.ms("exec.execute_epoch", &[Phase::Window]).iter().sum();
    let core = tr.self_ms("core.", Phase::Window);
    let mut out = vec![format!(
        "window: {cycles} traced cycles, {:.1} ms in engine cycles; shadow core self time {:.1} ms = {:.1}% of cycle time; shadow exec.execute_epoch {:.1} ms = {:.1}% of run_epoch",
        cycle_total,
        core,
        100.0 * core / cycle_total,
        exec,
        100.0 * exec / run_epoch,
    )];
    for layer in [
        "warehouse.",
        "core.",
        "exec.",
        "storage.",
        "relalg.",
        "tpcd.",
    ] {
        out.push(format!(
            "self time in window, {:<10} {:>10.1} ms",
            layer,
            tr.self_ms(layer, Phase::Window)
        ));
    }
    out.push(format!("workload: {}", spec.why));
    out
}

fn write_trace(path: &Path, tr: &Tracer) -> Result<(), Fatal> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Fatal(format!("creating {}: {e}", dir.display())))?;
    }
    let doc = Json::obj([("spans", tr.to_json())]);
    std::fs::write(path, doc.render())
        .map_err(|e| Fatal(format!("writing {}: {e}", path.display())))
}
