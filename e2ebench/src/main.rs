//! Host-normalised end-to-end and per-layer benchmark for BlueFi.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fleet_daemon|a2dp_stream|cold_batch --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! traced run that times every layer's public entry points on the same
//! inputs and writes its spans to `.bench_out/`. Every run prints a
//! readable report (lines starting with `#`) and then, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `e2ebench/NOTES.md` for the workloads and the metric table.

mod a2dp;
mod calib;
mod cold;
mod fleet;
mod gen;
mod probe;
mod replay;
mod report;
mod spans;
mod stats;
mod steal;

use report::Report;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 7] = [
    "latency_p50_us",
    "latency_tail_us",
    "throughput_pps",
    "max_rate_rps",
    "realtime_factor",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 33] = [
    "bt.gfsk_ns_per_sample",
    "bt.anchored_ns_per_sample",
    "cp.ns_per_sample",
    "qam.ns_per_symbol",
    "wifi.demap_deinterleave_ns_per_symbol",
    "fec.viterbi_ns_per_coded_bit",
    "fec.realtime_ns_per_coded_bit",
    "fec.flips_per_packet",
    "extract.us_per_packet",
    "pipeline.synth_us",
    "pipeline.replay_gap_ratio",
    "template.patch_us",
    "template.miss_us",
    "template.hit_ratio",
    "template.bytes_resident",
    "template.speedup_vs_cold",
    "service.rtt_us",
    "service.overhead_us",
    "service.encode_us",
    "service.decode_us",
    "service.response_bytes",
    "service.queue_wait_us",
    "service.shed",
    "service.deadline_exceeded",
    "par.speedup",
    "par.efficiency",
    "apps.sbc_encode_us_per_frame",
    "apps.schedule_overhead_us",
    "verify.loopback_bit_errors",
    "host.calib_us",
    "host.raw_latency_p50_us",
    "host.raw_latency_tail_us",
    "trace.overhead_ratio",
];

/// Number of separate set-up processes whose median is `setup_s`.
const SETUP_PROBES: usize = 5;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<(Opts, bool), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => opts.workload = val()?,
            "--seed" => opts.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                opts.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["fleet_daemon", "a2dp_stream", "cold_batch"].contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be fleet_daemon, a2dp_stream or cold_batch (got {:?})",
            opts.workload
        ));
    }
    Ok((opts, setup_probe))
}

/// The process's peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `SETUP_PROBES` child processes that each perform the workload's
/// set-up once from a cold process, and returns the median set-up time in
/// reference-host seconds plus the raw median. A probe with too much host
/// steal is run again, within 0.15 × `--seconds` of re-runs.
fn measure_setup(opts: &Opts) -> Result<(f64, f64, steal::Reruns), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut norm = Vec::new();
    let mut raw = Vec::new();
    let mut reruns = steal::Reruns::new(Duration::from_secs_f64(0.15 * opts.seconds));
    while raw.len() < SETUP_PROBES {
        let started = Instant::now();
        let ticks = steal::Ticks::now();
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &opts.workload,
                "--seed",
                &opts.seed.to_string(),
            ])
            .arg("--setup-probe")
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("spawning set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or("");
        let mut it = line.split_whitespace();
        let (Some("setup"), Some(s), Some(c)) = (it.next(), it.next(), it.next()) else {
            return Err(format!(
                "set-up probe failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        };
        let (s, c): (f64, f64) = (
            s.parse().map_err(|e| format!("probe output: {e}"))?,
            c.parse().map_err(|e| format!("probe output: {e}"))?,
        );
        if reruns.rerun(ticks.share_until(steal::Ticks::now()), started) {
            continue;
        }
        raw.push(s);
        norm.push(s * calib::CALIB_REF_US / c);
    }
    Ok((stats::median(&norm), stats::median(&raw), reruns))
}

/// The child side of [`measure_setup`]: set up once, then time the
/// calibration kernel so the parent can normalise this process's set-up.
fn setup_probe(opts: &Opts) -> Result<(), String> {
    let t0 = Instant::now();
    let secs = match opts.workload.as_str() {
        "fleet_daemon" => {
            let fx = fleet::Fixture::setup(opts.seed)?;
            let s = t0.elapsed().as_secs_f64();
            fx.close();
            s
        }
        "a2dp_stream" => {
            let _fx = a2dp::Fixture::setup(opts.seed)?;
            t0.elapsed().as_secs_f64()
        }
        _ => {
            let _fx = cold::Fixture::setup(opts.seed)?;
            t0.elapsed().as_secs_f64()
        }
    };
    let mut norm = calib::Normaliser::new();
    norm.sample(7);
    println!("setup {secs} {}", norm.calib_us());
    Ok(())
}

fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let mut rep = Report::default();
    rep.note(format!(
        "workload {} seed {} seconds {} trace {} host_cpus {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        bluefi_core::host_cpus()
    ));
    if !opts.trace {
        let (setup, setup_raw, reruns) = measure_setup(opts)?;
        rep.put("setup_s", setup, "s");
        rep.note(format!(
            "setup: median of {SETUP_PROBES} cold processes, {setup_raw:.4} s raw"
        ));
        rep.note(reruns.summary("set-up steal"));
    }
    match opts.workload.as_str() {
        "fleet_daemon" => fleet::run(opts, &mut rep)?,
        "a2dp_stream" => a2dp::run(opts, &mut rep)?,
        _ => cold::run(opts, &mut rep)?,
    }
    if rep.get("peak_rss_mb").is_none() {
        rep.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(rep)
}

fn main() {
    let (opts, probe) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if probe {
        if let Err(e) = setup_probe(&opts) {
            eprintln!("e2ebench set-up probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&opts) {
        Ok(rep) => {
            if opts.trace {
                rep.print(&PER_LAYER);
            } else {
                rep.print(&END_TO_END);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
