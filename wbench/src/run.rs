//! The end-to-end run: the life-cycle with tracing off, reduced to the 15
//! metrics a user of the warehouse sees.

use crate::lifecycle::{
    answer_check, cycle, durability, next_deltas, peak_rss_mb, probe_burst, query_round,
    settle_allocator, setup, Ctx, Engine, Fatal, Ops,
};
use crate::metrics::{median, ms, Values};
use crate::spec::{Inputs, Scale, Spec, REPEATS};
use crate::trace::Phase;
use std::path::Path;
use std::time::Duration;

pub struct Outcome {
    pub values: Values,
    pub ops: Ops,
    /// Human-readable lines (sample counts, durations) printed before the
    /// result line.
    pub notes: Vec<String>,
}

pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    scale: Scale,
    work: &Path,
) -> Result<Outcome, Fatal> {
    let cycles = spec.cycles(seconds, scale);
    let inputs = Inputs::generate(spec, seed);
    let mut ctx = Ctx::new(false);
    let wal_dir = work.join("wal");
    let mut notes = Vec::new();

    // A: set up several times on identical inputs, keep the last engine.
    // The engines that are not kept serve a probe burst each before they go
    // (phase C's samples are spread over the run, see `durability`).
    let mut setups = Vec::with_capacity(REPEATS);
    let mut replans = Vec::new();
    let mut engine: Option<Engine> = None;
    for _ in 0..REPEATS {
        if let Some(mut spare) = engine.take() {
            replans.extend(probe_burst(
                &mut ctx,
                &inputs,
                &mut spare.wh,
                spec.probe_rounds,
            )?);
        }
        let (eng, timed) = setup(&mut ctx, spec, &inputs, &wal_dir)?;
        setups.push(timed.as_secs_f64());
        engine = Some(eng);
    }
    let mut eng = engine.ok_or_else(|| Fatal("no setup ran".into()))?;

    // B: the measured window.
    ctx.tracer.set_phase(Phase::Window);
    let window = std::time::Instant::now();
    let (mut cycle_ms, mut ingest_ms, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut first_ms, mut repeat_ms) = (Vec::new(), Vec::new());
    let (mut tuples, mut busy) = (0usize, Duration::ZERO);
    for _ in 0..cycles {
        let deltas = next_deltas(&mut ctx, spec, &inputs, &mut eng)?;
        let s = cycle(&mut ctx, spec, &mut eng, &deltas, true)?;
        cycle_ms.push(ms(s.total()));
        ingest_ms.push(ms(s.ingest));
        epoch_ms.push(ms(s.epoch));
        tuples += s.tuples;
        busy += s.total();
        // Round 1 derives rows from the refreshed columnar state, round 2
        // reads whatever round 1 left cached.
        settle_allocator();
        first_ms.push(ms(query_round(&mut ctx, &eng, "query_first")?.0));
        repeat_ms.push(ms(query_round(&mut ctx, &eng, "query_repeat")?.0));
    }
    notes.push(format!(
        "window: {cycles} cycles in {:.2}s wall ({:.2}s in engine cycle calls), {tuples} delta tuples",
        window.elapsed().as_secs_f64(),
        busy.as_secs_f64()
    ));
    let report = eng
        .wh
        .current_report()
        .ok_or_else(|| Fatal("no plan installed after the window".into()))?;
    let plan_cost_ratio = report.total_cost / report.nogreedy_cost;

    // C: view-set change probe. One sample = the replans of one round.
    replans.extend(probe_burst(
        &mut ctx,
        &inputs,
        &mut eng.wh,
        spec.probe_rounds,
    )?);
    // Before the checker's second engine and the recovered engines exist.
    let peak_rss = peak_rss_mb();

    // D and E.
    answer_check(&mut ctx, &eng)?;
    let d = durability(
        &mut ctx,
        spec,
        &inputs,
        eng,
        &wal_dir,
        REPEATS,
        spec.probe_rounds,
    )?;
    replans.extend(&d.replan);
    let replan_ms: Vec<f64> = replans.iter().map(|d| ms(*d)).collect();
    let secs = |v: &[Duration]| v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>();

    notes.push(format!(
        "samples: setup {}, cycles {}, query rounds {}+{}, probe rounds {}, checkpoints {}, recoveries {}",
        setups.len(),
        cycle_ms.len(),
        first_ms.len(),
        repeat_ms.len(),
        replan_ms.len(),
        d.save.len(),
        d.recover.len()
    ));
    notes.push(format!(
        "inputs: fingerprint {:016x} over {} rows; generate_db {:.1} ms",
        d.fingerprint.hash,
        d.fingerprint.rows,
        ms(inputs.generate_db)
    ));

    let mut v = Values::default();
    v.set("setup_s", median(&setups));
    v.set("cycle_ms_p50", median(&cycle_ms));
    v.set("ingest_ms_p50", median(&ingest_ms));
    v.set("epoch_ms_p50", median(&epoch_ms));
    v.set(
        "refresh_ktuples_per_s",
        tuples as f64 / 1e3 / busy.as_secs_f64(),
    );
    v.set("query_first_ms_p50", median(&first_ms));
    v.set("query_repeat_ms_p50", median(&repeat_ms));
    v.set("replan_ms_p50", median(&replan_ms));
    v.set("checkpoint_s", median(&secs(&d.save)));
    v.set("recover_s", median(&secs(&d.recover)));
    v.set("peak_rss_mb", peak_rss);
    v.set("plan_cost_ratio", plan_cost_ratio);
    v.set(
        "wal_bytes_per_ktuple",
        d.wal_bytes as f64 / (d.tail_tuples as f64 / 1e3),
    );
    v.set(
        "snapshot_bytes_per_user_byte",
        d.snapshot_bytes as f64 / d.user_bytes as f64,
    );
    v.set(
        "ok_op_share",
        1.0 - ctx.ops.failed as f64 / ctx.ops.attempted as f64,
    );
    Ok(Outcome {
        values: v,
        ops: ctx.ops,
        notes,
    })
}
