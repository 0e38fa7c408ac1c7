//! One workload, one pass, in this process.
//!
//! `--trace 0` is the end-to-end pass: several cold set-ups (each a fresh
//! construction plus the cold reference rep), then untraced timed reps for
//! `--seconds`. `--trace 1` is the traced pass: one set-up, then pairs of an
//! untraced and a traced rep (so the tracing overhead is measured inside one
//! process), then the unit-cost pass. End-to-end numbers only ever come
//! from the untraced pass.
//!
//! Seeds. The set-ups and the first timed rep all run at `--seed` itself;
//! their digests must agree, which is the purity check (cold against cold,
//! and warm against cold). Every later rep runs at its own seed derived from
//! `--seed` ([`rep_seed`]): the simulated work of a rep — drain lengths
//! above all — moves by several percent with the seed, and a run whose reps
//! all shared one seed would carry that seed's luck into its median. With a
//! seed per rep the median of a run averages over seeds, so runs with
//! different `--seed`s agree (the benchmark contract measures exactly that).
//! An untraced/traced pair shares its seed, so their digests must agree too.
//!
//! The last line printed is the result object the benchmark contract asks
//! for; everything a tool needs beyond it goes to
//! `benchmark/out/result.<workload>.trace<0|1>.json`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Value;
use crate::metrics::{self, END_TO_END};
use crate::spans::{self, Tracer};
use crate::stats::{highest_percentile, median, percentile};
use crate::workloads::{self, sweep, Rep, Size, Workload};
use crate::{budget, table, unit};

/// Cold set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed reps (or untraced/traced pairs) whatever `--seconds` says.
const MIN_REPS: usize = 3;
const PANICKED: &str = "rep panicked";

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub out_dir: PathBuf,
}

/// Folds `--seed` into the 16-bit domain of the chip's PRBS LFSRs the way
/// `Network::reset` does (XOR of the 16-bit limbs, zero remapped), so
/// `with_base_seed` and `reset` see the same value.
pub fn fold_seed(seed: u64) -> u16 {
    let folded = (seed ^ (seed >> 16) ^ (seed >> 32) ^ (seed >> 48)) as u16;
    if folded == 0 {
        0x1D0C
    } else {
        folded
    }
}

/// The PRBS base seed of rep `index` of a run at `--seed`: the folded seed
/// itself for index 0 (the reference rep), a SplitMix64 finalizer over
/// (seed, index) for the rest.
pub fn rep_seed(seed: u64, index: u32) -> u16 {
    if index == 0 {
        return fold_seed(seed);
    }
    let mut z = seed
        .wrapping_add(u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    fold_seed(z ^ (z >> 31))
}

/// Ops attempted and failed so far, with one line per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// First digest seen per rep index (index 0 is the reference rep's).
    digests: BTreeMap<u32, u64>,
    panicked: bool,
}

impl Tally {
    /// Counts `rep`'s ops. A digest that differs from an earlier rep's with
    /// the same seed means the simulator is not pure and fails one op.
    fn add(&mut self, label: &str, index: u32, rep: &Rep) {
        let mut failures = rep.failures.clone();
        if let Some(digest) = rep.digest {
            let first = *self.digests.entry(index).or_insert(digest);
            if first != digest {
                failures.push(format!(
                    "digest {digest:016x} differs from {first:016x}, an earlier rep's with the same seed"
                ));
            }
        }
        self.panicked |= failures.iter().any(|f| f == PANICKED);
        self.attempted += rep.ops;
        self.failed += (failures.len() as u64).min(rep.ops);
        self.failures
            .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
    }
}

/// A panic inside a rep is a failed op, not the end of the run's report.
fn guarded_rep(workload: &mut dyn Workload, seed: u16, tracer: Option<&mut Tracer>) -> Rep {
    catch_unwind(AssertUnwindSafe(|| workload.rep(seed, tracer)))
        .unwrap_or_else(|_| Rep::failed(1, PANICKED.to_owned()))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The metrics a pass reports, by name: the value and the samples behind it
/// (empty when the value is not a median of per-rep samples). Units come
/// from the catalogue when the result is written.
type Reported = BTreeMap<String, (f64, Vec<f64>)>;

/// What the set-ups and timed reps of a pass measured.
struct Measured {
    /// The reference rep (the last set-up's cold rep).
    reference: Rep,
    setup_s: Vec<f64>,
    /// Per untraced rep: host seconds and router-cycles per second.
    wall_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    /// Per traced rep: host seconds.
    traced_wall_s: Vec<f64>,
    reps: u32,
}

/// Runs the pass. `Ok(true)` when every op succeeded.
pub fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let smoke = args.size == Size::Smoke;
    println!(
        "== {} | seed {} (PRBS base 0x{:04X}) | {} | {}",
        args.workload,
        args.seed,
        fold_seed(args.seed),
        if args.trace {
            "traced pass"
        } else {
            "end-to-end pass"
        },
        if smoke {
            "SMOKE: plumbing check, numbers mean nothing"
        } else {
            "full size"
        },
    );

    let mut tracer = args
        .trace
        .then(|| Tracer::new(args.workload, process_start));
    let mut tally = Tally::default();
    let measured = measure(args, process_start, tracer.as_mut(), &mut tally)?;
    let reported = match tracer.as_mut() {
        Some(tracer) => report_traced(args, &measured, &tally, tracer)?,
        None => report_end_to_end(args, &measured)?,
    };

    let digest = tally
        .digests
        .get(&0)
        .map_or("none".to_owned(), |d| format!("{d:016x}"));
    println!(
        "\nops_attempted = {}  ops_failed = {}  model.sim_digest = {digest}  reps = {}",
        tally.attempted, tally.failed, measured.reps
    );
    for failure in &tally.failures {
        println!("FAILED {failure}");
    }
    let correct = tally.failed == 0;

    let units = metrics::units();
    let metric_json = |name: &str, value: f64, samples: &[f64]| {
        let mut fields = vec![
            ("value".to_owned(), Value::Num(value)),
            (
                "unit".to_owned(),
                Value::Str(units.get(name).copied().unwrap_or("").to_owned()),
            ),
        ];
        if !samples.is_empty() {
            fields.push((
                "samples".to_owned(),
                Value::Arr(samples.iter().map(|s| Value::Num(*s)).collect()),
            ));
        }
        Value::Obj(fields)
    };
    let result = |metrics: Vec<(String, Value)>| {
        vec![
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), Value::Num(tally.attempted as f64)),
            ("failed".to_owned(), Value::Num(tally.failed as f64)),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ]
    };

    // Everything measured, for `run`'s summary and `agree`.
    let mut file = vec![
        ("workload".to_owned(), Value::Str(args.workload.to_owned())),
        ("seed".to_owned(), Value::Num(args.seed as f64)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("smoke".to_owned(), Value::Bool(smoke)),
        ("reps".to_owned(), Value::Num(f64::from(measured.reps))),
        ("sim_digest".to_owned(), Value::Str(digest)),
        (
            "failures".to_owned(),
            Value::Arr(tally.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    file.extend(result(
        reported
            .iter()
            .map(|(name, (value, samples))| (name.clone(), metric_json(name, *value, samples)))
            .collect(),
    ));
    let path = args.out_dir.join(format!(
        "result.{}.trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    write_file(&path, &Value::Obj(file).pretty())?;

    // The contract's result line: exactly the metrics BENCHMARK.json lists
    // for this pass. A per-layer metric that is absent from this workload
    // by construction reads 0.
    let listed: Vec<String> = if args.trace {
        metrics::per_layer().into_iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name.to_owned()).collect()
    };
    let line = result(
        listed
            .into_iter()
            .map(|name| {
                let value = reported.get(&name).map_or(0.0, |(value, _)| *value);
                let metric = metric_json(&name, value, &[]);
                (name, metric)
            })
            .collect(),
    );
    println!("{}", Value::Obj(line).compact());
    Ok(correct)
}

/// The set-ups and the timed reps (untraced/traced pairs when tracing).
fn measure(
    args: &Args,
    process_start: Instant,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let smoke = args.size == Size::Smoke;
    let root = tracer.as_mut().map(|t| t.open("workload", "bench"));

    // Set-up: construct from nothing and run the cold reference rep, the
    // first time counted from process start. The previous set-up's objects
    // are dropped before the clock restarts.
    let setups = if args.trace || smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut state: Option<(Box<dyn Workload>, Rep)> = None;
    for index in 0..setups {
        drop(state.take());
        let start = if index == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (built, _) = spans::spanned(&mut tracer, "setup", "bench", || {
            workloads::build(args.workload, args.size).map(|mut workload| {
                let rep = guarded_rep(workload.as_mut(), rep_seed(args.seed, 0), None);
                (workload, rep)
            })
        });
        let (workload, rep) = built?;
        setup_s.push(start.elapsed().as_secs_f64());
        tally.add(&format!("set-up {}", index + 1), 0, &rep);
        state = Some((workload, rep));
    }
    let (mut workload, reference) = state.expect("at least one set-up ran");

    let min_reps = if smoke { 1 } else { MIN_REPS };
    let (mut wall_s, mut cycles_per_s, mut traced_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let timed_start = Instant::now();
    let mut reps = 0u32;
    while !tally.panicked
        && ((reps as usize) < min_reps || timed_start.elapsed().as_secs_f64() < args.seconds)
    {
        // Rep 1 repeats the reference rep's seed; the rest get their own.
        let index = reps;
        let seed = rep_seed(args.seed, index);
        reps += 1;
        if let Some(tracer) = tracer.as_mut() {
            tracer.set_rep(reps);
        }
        // Spanned from outside only, so the traced pass's own clock reads
        // stay out of the untraced rep.
        let (rep, _) = spans::spanned(&mut tracer, "untraced_rep", "bench", || {
            guarded_rep(workload.as_mut(), seed, None)
        });
        tally.add(&format!("rep {reps}"), index, &rep);
        if rep.failures.is_empty() && rep.timed_s > 0.0 {
            wall_s.push(rep.timed_s);
            cycles_per_s.push(rep.router_cycles as f64 / rep.timed_s);
        }
        if let Some(tracer) = tracer.as_mut() {
            let span = tracer.open("rep", "bench");
            let traced = guarded_rep(workload.as_mut(), seed, Some(tracer));
            tally.add(&format!("traced rep {reps}"), index, &traced);
            if !tally.panicked {
                tracer.close(span);
            }
            if traced.failures.is_empty() {
                traced_wall_s.push(traced.timed_s);
            }
        }
    }
    // A panic left its spans open; the workload span stays open with them.
    if let (Some(tracer), Some(root), false) = (tracer, root, tally.panicked) {
        tracer.close(root);
    }
    if wall_s.is_empty() {
        for failure in &tally.failures {
            eprintln!("FAILED {failure}");
        }
        return Err(format!("{}: no rep completed", args.workload));
    }
    Ok(Measured {
        reference,
        setup_s,
        wall_s,
        cycles_per_s,
        traced_wall_s,
        reps,
    })
}

/// The end-to-end metrics of an untraced pass.
fn report_end_to_end(args: &Args, measured: &Measured) -> Result<Reported, String> {
    // Memory first: the paper-gap sweep below must not count.
    let rss = peak_rss_mb()?;
    // The gap belongs to the model, not to the workload or the seed: every
    // workload computes it the same way, outside every timed region (the
    // contract wants every end-to-end metric on every workload).
    let gap = sweep::paper_gap(args.size)?;
    let median_of = |samples: &[f64]| (median(samples), samples.to_vec());
    let reported: Reported = [
        ("wall_s", median_of(&measured.wall_s)),
        ("router_cycles_per_s", median_of(&measured.cycles_per_s)),
        ("peak_rss_mb", (rss, vec![rss])),
        ("paper_gap_pct", (gap, vec![gap])),
        ("setup_s", median_of(&measured.setup_s)),
    ]
    .into_iter()
    .map(|(name, metric)| (name.to_owned(), metric))
    .collect();
    println!();
    table::print(
        &["metric", "median", "unit", "n", "min", "max"],
        &END_TO_END
            .iter()
            .map(|m| {
                let (value, samples) = &reported[m.name];
                vec![
                    m.name.to_owned(),
                    format!("{value:.6}"),
                    m.unit.to_owned(),
                    samples.len().to_string(),
                    format!(
                        "{:.6}",
                        samples.iter().copied().fold(f64::INFINITY, f64::min)
                    ),
                    format!("{:.6}", samples.iter().copied().fold(0.0, f64::max)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    Ok(reported)
}

/// The per-layer metrics of a traced pass: medians of the traced reps'
/// samples, the unit-cost pass, the model statistics of the reference rep,
/// the budget estimate and the tracing overhead. Prints the tables and
/// writes the spans.
fn report_traced(
    args: &Args,
    measured: &Measured,
    tally: &Tally,
    tracer: &mut Tracer,
) -> Result<Reported, String> {
    let units = metrics::units();
    let unit_of = |name: &str| units.get(name).copied().unwrap_or("");
    let mut reported = Reported::new();
    let mut report = |name: &str, value: f64| {
        reported.insert(name.to_owned(), (value, Vec::new()));
    };

    // Per-rep samples of the traced reps: medians. Counts are exact for a
    // seed; the traced reps run at different seeds, so here too the median.
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut sampled = Vec::new();
    for (name, samples) in tracer.samples() {
        if name == "mesh-noc.step_block_us" {
            // The percentile rule: the highest percentile with ten or more
            // samples beyond it, otherwise the median only.
            let tail = highest_percentile(samples);
            report("mesh-noc.step_block_p50_us", median(samples));
            if tail.is_some_and(|(p, _)| p >= 95.0) {
                report("mesh-noc.step_block_p95_us", percentile(samples, 95.0));
            }
            println!(
                "step blocks of {} steps: n={} p50 {:.1} us, {}",
                workloads::step::BLOCK_STEPS,
                samples.len(),
                median(samples),
                tail.map_or("median only".to_owned(), |(p, v)| format!("p{p} {v:.1} us"))
            );
        } else {
            values.insert(name.clone(), median(samples));
            sampled.push((name.clone(), samples.clone()));
        }
    }
    if values.contains_key("count.link_traversals") {
        let events: f64 = [
            "count.link_traversals",
            "count.local_link_traversals",
            "count.credits_sent",
            "count.lookaheads_sent",
        ]
        .iter()
        .map(|name| values[*name])
        .sum();
        values.insert("noc-sim.wheel_events".to_owned(), events);
        report("noc-sim.wheel_events", events);
    }

    println!("\nunit costs (median of 9 batches, one call into a public function each):");
    let span = tracer.open("unit_costs", "bench");
    let unit_costs: BTreeMap<String, f64> = unit::run(args.size).into_iter().collect();
    tracer.close(span);
    table::print(
        &["metric", "value", "unit"],
        &unit_costs
            .iter()
            .map(|(name, value)| {
                vec![
                    name.clone(),
                    format!("{value:.2}"),
                    unit_of(name).to_owned(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for (name, value) in &unit_costs {
        report(name, *value);
    }

    for (name, value) in &measured.reference.model {
        report(name, *value);
    }
    if let Some(&digest) = tally.digests.get(&0) {
        // The low 48 bits: a JSON number holds them exactly.
        report("model.sim_digest", (digest & 0xFFFF_FFFF_FFFF) as f64);
    }

    // Budget estimate (step workloads: the ones with exact counts).
    if values.contains_key("noc-router.bypasses") {
        let timed_ns = median(&measured.wall_s) * 1e9;
        let coin_flips = median(&measured.cycles_per_s) * median(&measured.wall_s);
        let lines = budget::lines(&values, &unit_costs, coin_flips);
        println!(
            "\ncycle-budget ESTIMATE (unit cost x exact count, against the untraced median rep of {:.3} s):",
            timed_ns * 1e-9
        );
        table::print(
            &["layer", "what", "count", "unit ns", "est ms", "share"],
            &lines
                .iter()
                .map(|l| {
                    vec![
                        l.layer.to_owned(),
                        l.what.to_owned(),
                        format!("{:.0}", l.count),
                        format!("{:.1}", l.unit_ns),
                        format!("{:.1}", l.ns() * 1e-6),
                        format!("{:.1}%", 100.0 * l.ns() / timed_ns),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        for (name, share) in budget::shares(&lines, timed_ns) {
            println!("  {name} = {share:.3}");
            report(&name, share);
        }
    }

    if values.contains_key("mesh-noc.measure_s") {
        print_phase_table(&values);
    }

    if !measured.traced_wall_s.is_empty() {
        let (traced, untraced) = (median(&measured.traced_wall_s), median(&measured.wall_s));
        let overhead = 100.0 * (traced / untraced - 1.0);
        reported.insert(
            "bench.trace_overhead_pct".to_owned(),
            (overhead, measured.traced_wall_s.clone()),
        );
        println!(
            "\nbench.trace_overhead_pct = {overhead:.2} % (traced median rep {traced:.4} s over untraced {untraced:.4} s, {} pairs)",
            measured.traced_wall_s.len()
        );
    }
    for (name, samples) in sampled {
        reported.insert(name.clone(), (values[&name], samples));
    }

    println!("\nself time (span duration minus the part its children cover), all traced reps:");
    table::print(
        &["layer", "span", "count", "total s", "self s"],
        &spans::self_time_table(tracer.spans())
            .iter()
            .map(|row| {
                vec![
                    row.layer.to_owned(),
                    row.name.clone(),
                    row.count.to_string(),
                    format!("{:.4}", row.total_s),
                    format!("{:.4}", row.self_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let path = args.out_dir.join(format!("trace.{}.json", args.workload));
    write_file(&path, &tracer.to_json().pretty())?;
    println!("spans written to {}", path.display());
    Ok(reported)
}

/// The sweep-point phase table of `fig5_sweep`: where a sweep's host time
/// goes, per network, from the replica's spans.
fn print_phase_table(values: &BTreeMap<String, f64>) {
    println!("\nsweep-point phases (replica of Simulation::run, median traced rep):");
    let mut rows = Vec::new();
    for network in sweep::NETWORKS {
        let seconds: Vec<f64> = sweep::PHASES
            .iter()
            .map(|phase| {
                values
                    .get(&format!("mesh-noc.{network}.{phase}_s"))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        let total: f64 = seconds.iter().sum();
        for (phase, s) in sweep::PHASES.iter().zip(&seconds) {
            rows.push(vec![
                network.to_owned(),
                (*phase).to_owned(),
                format!("{s:.4}"),
                format!("{:.1}%", 100.0 * s / total),
            ]);
        }
    }
    table::print(&["network", "phase", "s", "share"], &rows);
    let stale = values
        .get("mesh-noc.replica_mismatch_points")
        .copied()
        .unwrap_or(0.0);
    if stale > 0.0 {
        println!(
            "STALE: the replica disagrees with SweepRunner on {stale} points; the phase table no longer mirrors Simulation::run"
        );
    } else {
        println!(
            "mesh-noc.replica_mismatch_points = 0 (replica matches SweepRunner field by field)"
        );
    }
}

pub fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
