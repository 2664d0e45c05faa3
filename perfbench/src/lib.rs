//! Repeatable benchmark of the exhaustive checker and the swarm service.
//!
//! One process runs one named workload, checks every output against
//! pinned values, and reports either the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run). See `README.md` in this
//! directory for the workloads, the metrics and which end-to-end metric
//! each per-layer metric is expected to move.

mod check;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["check-unreduced", "check-reduced", "swarm-sweep"];

/// Timing-only set-ups before each batch. Spread over the run, the
/// fastest of them rides out host contention as the calls' does.
const SETUPS_PER_BATCH: usize = 3;

/// Instance sizes: `Full` is the benchmark, `Small` the same workloads
/// shrunk for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmarked instance sizes.
    Full,
    /// Reduced instances that finish in well under a second.
    Small,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed (only `swarm-sweep` draws its inputs from it).
    pub seed: u64,
    /// How long the timed phase repeats the workload's batch.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
}

/// A metric's declaration, as `BENCHMARK.json` lists it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, reported by every untraced run.
pub fn end_to_end_metrics() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("verdict_s", "s", "lower"),
        def("states_per_sec", "1/s", "higher"),
        def("runs_per_sec", "1/s", "higher"),
        def("peak_rss_mb", "MiB", "lower"),
    ]
}

/// Layers that get a `self_s.<layer>` metric, derived from the spans.
const LAYERS: [&str; 7] = [
    "core",
    "footprint",
    "scalarset",
    "explore",
    "exec",
    "verify",
    "swarm",
];

/// The per-layer metrics, reported by every traced run (0 where the
/// workload does not exercise the layer).
pub fn per_layer_metrics(scale: Scale) -> Vec<MetricDef> {
    let mut defs = vec![
        def("core.witness_ms", "ms", "lower"),
        def("core.build_us", "us", "lower"),
        def("footprint.analysis_ms", "ms", "lower"),
        def("footprint.validate_ms", "ms", "lower"),
        def("scalarset.certify_ms", "ms", "lower"),
    ];
    for name in check::search_names(scale) {
        defs.push(def(format!("explore.search_s.{name}"), "s", "lower"));
        defs.push(def(format!("explore.states.{name}"), "count", "lower"));
        defs.push(def(format!("explore.leaves.{name}"), "count", "higher"));
        defs.push(def(
            format!("explore.states_per_sec.{name}"),
            "1/s",
            "higher",
        ));
    }
    defs.extend([
        def("explore.max_level_workers", "count", "higher"),
        def("explore.frontier_vs_serial", "ratio", "higher"),
        def("storage.peak_table_mb", "MiB", "lower"),
        def("storage.bytes_per_state", "B", "lower"),
        def("storage.witness_mb", "MiB", "lower"),
        def("intern.interned_mb", "MiB", "lower"),
        def("exec.run_us", "us", "lower"),
        def("exec.steps_per_run", "count", "lower"),
        def("exec.crashes_per_run", "count", "higher"),
        def("verify.check_us", "us", "lower"),
        def("swarm.keying_merge_share", "share", "lower"),
        def("swarm.poll_tail_ms", "ms", "lower"),
        def("swarm.thread_speedup", "ratio", "higher"),
        def("swarm.distinct_finals", "count", "higher"),
        def("swarm.violations", "count", "higher"),
        def("process.cpu_util", "ratio", "higher"),
        def("trace.overhead_s", "s", "lower"),
    ]);
    for layer in LAYERS {
        defs.push(def(format!("self_s.{layer}"), "s", "lower"));
    }
    defs
}

/// Counts checked operations; a failed check never aborts the run.
#[derive(Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one operation whose output check passed iff `ok`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Runs `f`, turning a panic into an error message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// What one set-up measured, beyond its wall time.
#[derive(Clone, Copy, Default)]
pub(crate) struct SetupTimes {
    /// Witness search (and, for the swarm, the catalog build).
    pub witness_s: f64,
    /// First `system_analysis_cached` calls of the POR searches.
    pub analysis_s: f64,
}

/// One pass over a workload's timed calls.
#[derive(Default)]
pub(crate) struct Batch {
    /// Wall time of each timed call, in the same order every batch.
    pub calls: Vec<(String, f64)>,
    /// States the batch stored (checker) or stepped through (swarm).
    pub states: f64,
    /// Searches (checker) or seeded executions (swarm) completed.
    pub runs: f64,
    /// Per-layer values this batch measured.
    pub layer: BTreeMap<String, f64>,
}

impl Batch {
    /// Wall time of all timed calls.
    pub(crate) fn wall_s(&self) -> f64 {
        self.calls.iter().map(|c| c.1).sum()
    }
}

/// The interface each workload implements.
pub(crate) trait Workload {
    /// Witness search, system build and pre-warm. Only the set-up that
    /// is kept (`keep`) fills the program's caches; the others repeat
    /// the same work uncached, so every set-up pays the full cost.
    fn setup(scale: Scale, seed: u64, keep: bool, tracer: &mut Tracer) -> (Self, SetupTimes)
    where
        Self: Sized;
    /// The timed calls, each output checked.
    fn batch(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Batch;
    /// Traced-run measurements beyond the batch.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        untraced: &Batch,
        out: &mut BTreeMap<String, f64>,
    );
    /// Output checks run once, outside any timing.
    fn final_checks(&mut self, tally: &mut Tally);
    /// The configuration, as a JSON object, for the provenance stamp.
    fn config_json(&self) -> String;
    /// Worker threads the timed calls use.
    fn threads(&self) -> usize;
}

/// A metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output was wrong or which panicked.
    pub failed: u64,
    /// Descriptions of the failed operations.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Provenance stamp, a JSON object.
    pub provenance: String,
    /// Readable notes: the samples behind each reported time.
    pub summary: Vec<String>,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans_jsonl: Option<String>,
}

impl Report {
    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Runs `f`, returning its result and its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Median of `values` (mean of the middle two for even counts).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; infinite for none.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs one workload as `opts` describes.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "check-unreduced" => Ok(drive::<check::CheckWorkload<false>>(opts)),
        "check-reduced" => Ok(drive::<check::CheckWorkload<true>>(opts)),
        "swarm-sweep" => Ok(drive::<sweep::SweepWorkload>(opts)),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

fn drive<W: Workload>(opts: &Options) -> Report {
    let mut tracer = Tracer::new(opts.trace);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut setups = Vec::new();
    let mut set_up = |keep: bool, tracer: &mut Tracer| {
        let ((w, times), s) =
            timed(|| tracer.span("bench:setup", |t| W::setup(opts.scale, opts.seed, keep, t)));
        setup_s.push(s);
        setups.push(times);
        w
    };
    let mut workload = set_up(true, &mut tracer);

    let mut values = BTreeMap::new();
    let mut summary = Vec::new();
    if opts.trace {
        for _ in 0..SETUPS_PER_BATCH {
            set_up(false, &mut tracer);
        }
        // The first batch of a process pays one-time costs (heap growth,
        // first touches); the comparisons below start after it.
        let mut off = Tracer::new(false);
        workload.batch(&mut off, &mut tally);
        let cpu_before = cpu_seconds();
        let untraced = workload.batch(&mut off, &mut tally);
        let cpu = cpu_seconds() - cpu_before;
        let traced = tracer.span("bench:batch", |t| workload.batch(t, &mut tally));
        values.extend(traced.layer.clone());
        workload.layers(&mut tracer, &mut tally, &untraced, &mut values);
        let witness: Vec<f64> = setups.iter().map(|s| s.witness_s).collect();
        let analysis: Vec<f64> = setups.iter().map(|s| s.analysis_s).collect();
        values.insert("core.witness_ms".into(), median(&witness) * 1e3);
        values.insert("footprint.analysis_ms".into(), median(&analysis) * 1e3);
        values.insert("process.cpu_util".into(), cpu / untraced.wall_s().max(1e-9));
        values.insert(
            "trace.overhead_s".into(),
            traced.wall_s() - untraced.wall_s(),
        );
        for (layer, s) in tracer.self_time_by_layer() {
            values.insert(format!("self_s.{layer}"), s);
        }
    } else {
        // On a shared host, contention from other tenants' work comes
        // and goes for seconds to minutes at a time and slows a call by
        // up to half. It only ever adds time, so the fastest of a call's
        // (or a set-up's) samples is the steadiest estimate of its own
        // cost: medians and upper quantiles jump with the share of the
        // run that was contended. A batch starts only if it is expected
        // to end by the deadline.
        let started = Instant::now();
        let mut walls: Vec<(String, Vec<f64>)> = Vec::new();
        let mut last = Batch::default();
        while walls.is_empty() || started.elapsed().as_secs_f64() + last.wall_s() <= opts.seconds {
            for _ in 0..SETUPS_PER_BATCH {
                set_up(false, &mut tracer);
            }
            last = workload.batch(&mut tracer, &mut tally);
            walls.resize_with(last.calls.len(), Default::default);
            for ((name, samples), (call, wall)) in walls.iter_mut().zip(&last.calls) {
                name.clone_from(call);
                samples.push(*wall);
            }
        }
        let verdict_s: f64 = walls.iter().map(|(_, samples)| fastest(samples)).sum();
        summary.push(format!(
            "setup_s: fastest of {} samples; median {:.6}",
            setup_s.len(),
            median(&setup_s)
        ));
        for (name, samples) in &walls {
            let samples: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
            summary.push(format!(
                "{name}: fastest of {} samples, in run order: {}",
                samples.len(),
                samples.join(" ")
            ));
        }
        values.insert("setup_s".into(), fastest(&setup_s));
        values.insert("verdict_s".into(), verdict_s);
        values.insert("states_per_sec".into(), last.states / verdict_s.max(1e-9));
        values.insert("runs_per_sec".into(), last.runs / verdict_s.max(1e-9));
        values.insert("peak_rss_mb".into(), peak_rss_mib());
    }
    workload.final_checks(&mut tally);

    let defs = if opts.trace {
        per_layer_metrics(opts.scale)
    } else {
        end_to_end_metrics()
    };
    let metrics = defs
        .into_iter()
        .map(|d| Metric {
            value: values.get(&d.name).copied().unwrap_or(0.0),
            name: d.name,
            unit: d.unit,
        })
        .collect();
    let provenance = provenance(opts, &workload);
    let spans_jsonl = opts.trace.then(|| tracer.to_jsonl(&provenance));
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        provenance,
        summary,
        spans_jsonl,
    }
}

fn provenance<W: Workload>(opts: &Options, workload: &W) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {nproc}, \"threads\": {}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": \"{:?}\", \
         \"config\": {}}}",
        git_rev(),
        workload.threads(),
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.scale,
        workload.config_json()
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark reads nothing outside it); `unknown` elsewhere.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// User plus system CPU seconds of this process, all threads included.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (USER_HZ = 100
    // on Linux); the command name may contain spaces, so split after ')'.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
