//! The engine's benchmark: four seeded workloads timed from outside
//! through the public API and the query service's HTTP client.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload graph-rmat --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes a traced
//! run that prints the per-layer metrics and writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json` (or `--trace-out PATH`).
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod batch;
mod reference;
mod serve;
mod trace;

use std::path::PathBuf;

use recstep_common::mem::CountingAlloc;

use crate::trace::{json_num, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "program-analysis",
    "graph-rmat",
    "graph-dense",
    "serve-mixed",
];

/// Measured passes per run, however long they take.
const MIN_PASSES: usize = 3;
/// Measured service rounds per run: every request type gets at least
/// this many samples, so its p90 has ten beyond it.
const MIN_ROUNDS: usize = 100;

/// End-to-end metrics, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics, printed by `--trace 1`. A metric a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("failed_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("view_read_ms.p50", "ms"),
    ("view_read_ms.p90", "ms"),
    ("scratch_read_ms.p50", "ms"),
    ("scratch_read_ms.p90", "ms"),
    ("insert_ms.p50", "ms"),
    ("insert_ms.p90", "ms"),
    ("delete_ms.p50", "ms"),
    ("delete_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("datalog.prepare_ms", "ms"),
    ("storage.load_ms", "ms"),
    ("storage.db_heap_mb", "MB"),
    ("storage.wal_records", "count"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.snapshots", "count"),
    ("core.run_ms", "ms"),
    ("core.iterations", "count"),
    ("core.tuples_considered", "count"),
    ("core.cpu_util", "ratio"),
    ("core.unattributed_ms", "ms"),
    ("core.mem_estimate_ratio", "ratio"),
    ("exec.pipeline_ms", "ms"),
    ("exec.fresh_ratio", "ratio"),
    ("exec.rt_rows_skipped", "count"),
    ("exec.rt_merge_bytes", "B"),
    ("exec.aggregate_ms", "ms"),
    ("exec.agg_rows_folded", "count"),
    ("exec.agg_groups_improved", "count"),
    ("exec.wcoj_runs", "count"),
    ("exec.wcoj_rows_emitted", "count"),
    ("exec.index.full_builds", "count"),
    ("exec.index.full_appends", "count"),
    ("exec.index.join_builds", "count"),
    ("exec.index.join_reuses", "count"),
    ("exec.index.bytes_peak", "B"),
    ("exec.cache_hit_ratio", "ratio"),
    ("exec.dedup_ms", "ms"),
    ("exec.setdiff_ms", "ms"),
    ("exec.merge_ms", "ms"),
    ("exec.index_ms", "ms"),
    ("exec.analyze_ms", "ms"),
    ("bitmatrix.pbme_ms", "ms"),
    ("bitmatrix.matrix_mb", "MB"),
    ("bitmatrix.strata", "count"),
    ("view.refreshes", "count"),
    ("view.seeded_strata", "count"),
    ("view.dred_strata", "count"),
    ("view.fallbacks", "count"),
    ("view.tuples_seeded", "rows/refresh"),
    ("view.tuples_retracted", "rows/refresh"),
    ("serve.compiles", "count"),
    ("serve.prepared_hits", "count"),
    ("serve.view_hits", "count"),
    ("serve.shed_count", "count"),
    ("serve.timeouts", "count"),
    ("serve.panics", "count"),
    ("serve.transport_ms", "ms"),
    ("passes", "count"),
];

/// Input size preset.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// Tiny inputs for the benchmark's own smoke test.
    Tiny,
}

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub trace_out: Option<PathBuf>,
    /// Where traces and the service's data directories go.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        size: Size::Full,
        trace_out: None,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--size" => {
                opts.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

/// What a workload measured.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    e2e: Vec<(String, f64, usize)>,
    layer: Vec<(String, f64)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Self {
        Outcome {
            attempted,
            failed,
            correct,
            e2e: Vec::new(),
            layer: Vec::new(),
        }
    }

    /// Record an end-to-end metric with its sample count.
    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.e2e.push((name.to_string(), value, samples));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.layer.push((name.to_string(), value));
    }
}

/// Mix a seed with a stream index (splitmix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0) % n
    }
}

/// Median (0 for no samples).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1] (0 for no samples).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(opts.trace);
    let result = if opts.workload == "serve-mixed" {
        serve::run(&opts, &mut tracer)
    } else {
        let progs = batch::programs(&opts.workload, opts.size, opts.seed)
            .expect("workload names are checked by parse_args");
        batch::run(&progs, &opts, &mut tracer)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if opts.trace {
        let path = opts.trace_out.clone().unwrap_or_else(|| {
            opts.out_dir
                .join(format!("trace-{}-{}.json", opts.workload, opts.seed))
        });
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("# spans written to {}", path.display());
        println!("# self time by span: name count self_ms");
        for (name, n, ms) in tracer.self_time_summary() {
            println!("#   {name} {n} {ms:.3}");
        }
    }
    report(&opts, &out);
}

/// Print every metric of the run by name and unit, then the result line.
fn report(opts: &Opts, out: &Outcome) {
    println!(
        "# {} engine threads, {} on seed {}",
        recstep::Config::default().effective_threads(),
        opts.workload,
        opts.seed
    );
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if opts.trace {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "failed_ratio" => failed_ratio,
                _ => out
                    .layer
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            println!("# {name} = {value} {unit}");
            metrics.push((name, unit, value));
        }
    } else {
        for (name, unit) in END_TO_END {
            let (value, samples) = out
                .e2e
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or((0.0, 0), |(_, v, s)| (*v, *s));
            println!("# {name} = {value} {unit} (median of {samples})");
            metrics.push((name, unit, value));
        }
        println!(
            "# failed_ratio = {failed_ratio} ({} of {})",
            out.failed, out.attempted
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}
