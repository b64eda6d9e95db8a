//! `fleet_daemon`: BLE beacons from a seeded fleet through an in-process
//! `bluefi_service::Server` (one worker) over a `CachedBackend` on the
//! Realtime + Anchored `CachedEngine`. Open loop on one connection — one
//! thread writes requests at seeded Poisson arrival times, the other reads
//! responses — with latency measured from each request's due time.

use crate::calib::Normaliser;
use crate::gen::{adv_bits, SplitMix64};
use crate::probe::{self, cached_config, Air, Conn, Req, Sample};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail};
use crate::steal::{Reruns, Ticks};
use crate::Opts;
use bluefi_core::BlueFi;
use bluefi_service::proto::write_frame;
use bluefi_service::{CachedBackend, Server};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Beacon classes primed at set-up and drawn from afterwards: one per
/// (channel, advertising-data length) pair.
const ACTIVE_CLASSES: usize = CHANNELS.len() * LENGTHS;
/// Advertising-data lengths: 16 to 16 + `LENGTHS` - 1 bytes.
const LENGTHS: usize = 16;
/// Every this-many-th request is a never-seen class (a template miss).
const MISS_ONE_IN: usize = 20;
/// The fixed offered rate latency is reported at, in reference-host
/// requests per second: about a third of the `max_rate_rps` measured
/// when the benchmark was defined.
pub const FIXED_RATE_RPS: f64 = 280.0;
/// Requests offered at the fixed rate per second of `--seconds`.
const FIXED_PER_S: f64 = 150.0;
/// The latency limit for `max_rate_rps`: BLE's minimum advertising
/// interval.
const LIMIT_US: f64 = 20_000.0;
/// Offered rates tried by the `max_rate_rps` search, as fractions of the
/// closed-loop capacity.
const LADDER: [f64; 13] = [
    0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.3,
];
/// The open-loop writer spins for the last stretch before a due time.
const SPIN: Duration = Duration::from_micros(300);
/// Open-loop windows the fixed-rate phase is split into, so the calibration
/// kernel runs (on an idle daemon) about once a second of it and a window
/// with too much steal is cheap to run again.
const FIXED_WINDOWS: usize = 12;
/// Closed-loop requests between two calibration-kernel runs.
const KERNEL_EVERY: usize = 4;
/// Closed-loop requests per throughput window.
const CLOSED_WINDOW: usize = 40;
/// Closed-loop requests per second of `--seconds`.
const CLOSED_PER_S: f64 = 150.0;
/// Closed-loop requests per segment; a segment with too much steal is run
/// again.
const CLOSED_SEGMENT: usize = 10 * CLOSED_WINDOW;
/// Wall time, in multiples of `--seconds`, that windows re-run for steal
/// may take in one run.
const RERUN_WALL: f64 = 0.75;
/// Independent `max_rate_rps` searches per run; the median is reported.
const SEARCHES: usize = 3;
/// Wall time, in multiples of `--seconds`, after which no further search
/// starts.
const SEARCH_WALL: f64 = 1.2;
/// Responses checked bit for bit against in-process synthesis: one in N.
const CHECK_ONE_IN: usize = 16;
/// (Bluetooth channel index, BLE advertising channel) pairs beacons use.
const CHANNELS: [(u8, u8); 2] = [(24, 38), (78, 39)];

/// One beacon class: its own template key (channel, scrambler seed,
/// length) and a counter byte that changes on every request.
#[derive(Debug, Clone)]
struct Class {
    bt_channel: u8,
    adv_channel: u8,
    seed: u8,
    address: [u8; 6],
    data: Vec<u8>,
}

impl Class {
    fn request(&mut self) -> Req {
        let last = self.data.len() - 1;
        self.data[last] = self.data[last].wrapping_add(1);
        Req {
            bits: adv_bits(self.address, &self.data, self.adv_channel),
            bt_channel: self.bt_channel,
            seed: self.seed,
        }
    }
}

/// The seeded request stream and its input census.
pub struct FleetGen {
    rng: SplitMix64,
    arrivals: SplitMix64,
    active: Vec<Class>,
    used: HashSet<(u8, u8, usize)>,
    lengths: BTreeMap<usize, u64>,
    requests: u64,
    new_classes: u64,
    /// The (channel, length) pair the first never-seen class takes.
    first_pair: usize,
}

impl FleetGen {
    fn new(seed: u64) -> FleetGen {
        let mut g = FleetGen {
            rng: SplitMix64::new(seed, 0xF1EE7),
            arrivals: SplitMix64::new(seed, 0xA771),
            active: Vec::new(),
            used: HashSet::new(),
            lengths: BTreeMap::new(),
            requests: 0,
            new_classes: 0,
            first_pair: 0,
        };
        g.first_pair = g.rng.below(ACTIVE_CLASSES);
        for pair in 0..ACTIVE_CLASSES {
            let c = g.fresh_class(pair);
            g.active.push(c);
        }
        g
    }

    /// A class of (channel, length) pair `pair` whose template key no
    /// earlier request used (the next pair's, once all 127 scrambler seeds
    /// of this one are used). Every seed gets the same mix of pairs, so the
    /// interned plans, the template bytes and the per-request cost do not
    /// vary with the draw; the scrambler seed, address and content do.
    fn fresh_class(&mut self, pair: usize) -> Class {
        for p in (0..ACTIVE_CLASSES).map(|k| (pair + k) % ACTIVE_CLASSES) {
            let (bt_channel, adv_channel) = CHANNELS[p % CHANNELS.len()];
            let len = 16 + p / CHANNELS.len();
            let start = self.rng.below(127);
            for k in 0..127 {
                let seed = 1 + ((start + k) % 127) as u8;
                if self.used.insert((bt_channel, seed, len)) {
                    let mut address = [0u8; 6];
                    address.copy_from_slice(&self.rng.bytes(6));
                    *self.lengths.entry(len).or_default() += 1;
                    return Class {
                        bt_channel,
                        adv_channel,
                        seed,
                        address,
                        data: self.rng.bytes(len),
                    };
                }
            }
        }
        panic!("all {} beacon template keys are used", 127 * ACTIVE_CLASSES);
    }

    /// The next request; `true` when it is a never-seen class.
    fn next(&mut self) -> (Req, bool) {
        self.requests += 1;
        if self.requests.is_multiple_of(MISS_ONE_IN as u64) {
            // Never-seen classes walk the pairs round-robin from a seeded
            // start, so every 32 misses cover each pair once.
            let pair = (self.first_pair + self.new_classes as usize) % ACTIVE_CLASSES;
            self.new_classes += 1;
            (self.fresh_class(pair).request(), true)
        } else {
            let i = self.rng.below(self.active.len());
            (self.active[i].request(), false)
        }
    }
}

/// The running daemon, its backend, a connection and the request stream,
/// with every active class primed into the template store.
pub struct Fixture {
    server: Server,
    backend: Arc<CachedBackend>,
    path: String,
    conn: Conn,
    gen: FleetGen,
    next_id: u64,
}

impl Fixture {
    /// Spawns the daemon, connects and primes one template per class.
    pub fn setup(seed: u64) -> Result<Fixture, String> {
        let (server, backend, path) = probe::spawn_daemon("fleet")?;
        let conn = Conn::connect(&path).map_err(|e| format!("connect: {e}"))?;
        let mut fx = Fixture {
            server,
            backend,
            path,
            conn,
            gen: FleetGen::new(seed),
            next_id: 0,
        };
        for i in 0..fx.gen.active.len() {
            let req = fx.gen.active[i].request();
            fx.call(&req)?;
        }
        let primed = fx.backend.engine().store().len();
        if primed != ACTIVE_CLASSES {
            return Err(format!(
                "priming {ACTIVE_CLASSES} classes left {primed} templates: the engine is not caching"
            ));
        }
        Ok(fx)
    }

    /// One closed-loop request; returns the raw round trip (µs) and the
    /// response payload.
    fn call(&mut self, req: &Req) -> Result<(f64, Vec<u8>), String> {
        self.next_id += 1;
        let frame = req.frame(self.next_id);
        let t0 = Instant::now();
        self.conn.send(&frame).map_err(|e| format!("send: {e}"))?;
        let payload = self.conn.recv()?;
        Ok((t0.elapsed().as_secs_f64() * 1e6, payload))
    }

    /// Closes the connection and shuts the daemon down.
    pub fn close(self) {
        drop(self.conn);
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Checks a sampled response against in-process synthesis.
fn matches(req: &Req, payload: &[u8]) -> bool {
    match probe::decode_response(payload) {
        Ok(got) => probe::same(
            &got,
            &cached_config().synthesize_at(&req.bits, req.plan(), req.seed),
        ),
        Err(_) => false,
    }
}

/// Error responses are small; a synthesis response is tens of KB.
fn is_error(payload: &[u8]) -> bool {
    payload.len() < 4096 && probe::decode_response(payload).is_err()
}

struct Closed {
    rtt: Vec<f64>,
    norm_rtt: Vec<f64>,
    air_us: f64,
    failed: u64,
    samples: Vec<Sample>,
}

/// `n` requests in segments of `CLOSED_SEGMENT`, each as [`closed_loop`];
/// a segment whose steal share is too high is run again with the next
/// requests. A dropped segment's responses are still checked and counted.
fn closed_quiet(
    fx: &mut Fixture,
    n: usize,
    norm: &mut Normaliser,
    reruns: &mut Reruns,
    rep: &mut Report,
) -> Result<Closed, String> {
    let mut out: Option<Closed> = None;
    let mut left = n;
    while left > 0 {
        let k = left.min(CLOSED_SEGMENT);
        let started = Instant::now();
        let ticks = Ticks::now();
        let seg = closed_loop(fx, k, norm, &mut Tracer::off())?;
        if reruns.rerun(ticks.share_until(Ticks::now()), started) {
            rep.attempted += seg.rtt.len() as u64;
            rep.fail_ops(
                seg.failed,
                format!("{} failed closed-loop responses", seg.failed),
            );
            continue;
        }
        left = left.saturating_sub(seg.rtt.len());
        out = Some(match out {
            None => seg,
            Some(mut a) => {
                a.rtt.extend(seg.rtt);
                a.norm_rtt.extend(seg.norm_rtt);
                a.air_us += seg.air_us;
                a.failed += seg.failed;
                a
            }
        });
    }
    out.ok_or_else(|| "no closed-loop requests".to_string())
}

/// `n` requests, one at a time, with the calibration kernel run between
/// requests while the daemon is idle.
fn closed_loop(
    fx: &mut Fixture,
    n: usize,
    norm: &mut Normaliser,
    tr: &mut Tracer,
) -> Result<Closed, String> {
    let mut out = Closed {
        rtt: vec![],
        norm_rtt: vec![],
        air_us: 0.0,
        failed: 0,
        samples: vec![],
    };
    norm.sample(3);
    for i in 0..n.max(8).next_multiple_of(KERNEL_EVERY) {
        let (req, _) = fx.gen.next();
        let s = tr.begin("service.client.synthesize", i as u64);
        let (rtt, payload) = fx.call(&req)?;
        tr.end(s);
        if is_error(&payload) || (i % CHECK_ONE_IN == 0 && !matches(&req, &payload)) {
            out.failed += 1;
        }
        out.rtt.push(rtt);
        out.air_us += req.bits.len() as f64;
        if out.samples.len() < 8 {
            out.samples.push(Sample {
                plan: req.plan(),
                seed: req.seed,
                bt_channel: req.bt_channel,
                air: Air::Ble,
                bits: req.bits,
            });
        }
        // The kernel runs once per group of requests; each group is scaled
        // by the kernel runs on either side of it.
        if out.rtt.len().is_multiple_of(KERNEL_EVERY) {
            norm.sample(1);
            let group = &out.rtt[out.rtt.len() - KERNEL_EVERY..];
            out.norm_rtt
                .extend(group.iter().map(|&t| norm.local_time(t)));
        }
    }
    Ok(out)
}

/// One open-loop run at a fixed offered rate.
struct Trial {
    rate_ref: f64,
    lat: Vec<f64>,
    /// Per request: a never-seen class, so a template miss.
    missed: Vec<bool>,
    tail: (f64, f64),
    late_p99_us: f64,
    failed: u64,
    checked: u64,
    backlog: bool,
    /// Steal share of the wall time the requests were in flight.
    steal: f64,
}

/// `n` requests at seeded Poisson arrivals of `rate_ref` per reference-host
/// second. Arrival times are drawn in reference time and stretched by the
/// host's slowdown, so every host sees the same inputs at the same load.
/// Latencies are scaled by the kernel runs just before and just after the
/// run (the daemon is idle then).
fn open_loop(
    fx: &mut Fixture,
    rate_ref: f64,
    n: usize,
    norm: &mut Normaliser,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Trial, String> {
    norm.sample(3);
    let slow = norm.slowdown();
    let n = n.max(20);
    let mut reqs = Vec::with_capacity(n);
    let mut frames = Vec::with_capacity(n);
    let mut dues = Vec::with_capacity(n);
    let mut missed = Vec::with_capacity(n);
    let mut new_keys = 0u64;
    let mut t_ref = 0.0;
    for _ in 0..n {
        t_ref += fx.gen.arrivals.exp_gap(rate_ref);
        let (r, new) = fx.gen.next();
        new_keys += u64::from(new);
        missed.push(new);
        fx.next_id += 1;
        frames.push(r.frame(fx.next_id));
        dues.push(Duration::from_secs_f64(t_ref * slow));
        reqs.push(r);
    }
    let store_before = fx.backend.engine().store().len();
    let mut writer = fx.conn.writer().map_err(|e| format!("socket clone: {e}"))?;
    let ticks = Ticks::now();
    let start = Instant::now() + Duration::from_millis(2);
    let conn = &mut fx.conn;
    let (done, kept, late) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut late = Vec::with_capacity(n);
            for (f, d) in frames.iter().zip(&dues) {
                // Sleep to just short of the due time, then spin: a sleep
                // alone oversleeps by a scheduler tick on a busy host.
                let due = start + *d;
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                if write_frame(&mut writer, f).is_err() {
                    break;
                }
            }
            late
        });
        let mut done = Vec::with_capacity(n);
        let mut kept = Vec::new();
        for i in 0..n {
            match conn.recv() {
                Ok(p) => {
                    done.push(Instant::now());
                    if i % CHECK_ONE_IN == 0 || is_error(&p) {
                        kept.push((i, p));
                    }
                }
                Err(_) => break,
            }
        }
        (done, kept, w.join().unwrap_or_default())
    });
    let steal = ticks.share_until(Ticks::now());
    if done.len() != n {
        return Err(format!(
            "daemon answered {} of {n} open-loop requests",
            done.len()
        ));
    }
    let mut failed = 0u64;
    let mut checked = 0u64;
    for (i, p) in &kept {
        if is_error(p) {
            failed += 1;
        } else {
            checked += 1;
            if !matches(&reqs[*i], p) {
                failed += 1;
            }
        }
    }
    let grew = fx.backend.engine().store().len() - store_before;
    if grew as u64 != new_keys {
        rep.fail(format!(
            "template store grew by {grew} for {new_keys} never-seen classes: hits below the designed share"
        ));
    }
    norm.sample(3);
    let scale = norm.recent_slowdown(6);
    let lat: Vec<f64> = dues
        .iter()
        .zip(&done)
        .map(|(d, t)| t.saturating_duration_since(start + *d).as_secs_f64() * 1e6 / scale)
        .collect();
    for (i, (d, t)) in dues.iter().zip(&done).enumerate() {
        tr.record("service.request.open_loop", i as u64, start + *d, *t);
    }
    let q = n / 4;
    let backlog = median(&lat[n - q..]) > 2.0 * median(&lat[..n / 2]) + 2_000.0;
    Ok(Trial {
        rate_ref,
        tail: tail(&lat),
        lat,
        missed,
        late_p99_us: percentile(&late, 99.0),
        failed,
        checked,
        backlog,
        steal,
    })
}

/// The fixed-rate phase: `n` requests in `FIXED_WINDOWS` separate
/// open-loop windows, each scaled by the kernel runs on either side of it.
/// The tail is taken over the template-miss requests, the workload's slow
/// path: at this rate the top few percent of the whole stream are hits
/// queued behind a miss or a host stall, so a whole-stream tail follows the
/// arrival draw and the host's stalls more than the program (see NOTES.md).
fn fixed_rate(
    fx: &mut Fixture,
    n: usize,
    norm: &mut Normaliser,
    tr: &mut Tracer,
    reruns: &mut Reruns,
    rep: &mut Report,
) -> Result<Trial, String> {
    let mut all: Option<Trial> = None;
    let mut per_window = Vec::with_capacity(FIXED_WINDOWS);
    for _ in 0..FIXED_WINDOWS {
        let w = loop {
            let started = Instant::now();
            let w = open_loop(fx, FIXED_RATE_RPS, n / FIXED_WINDOWS, norm, tr, rep)?;
            rep.attempted += w.lat.len() as u64;
            rep.fail_ops(
                w.failed,
                format!("{} failed responses at the fixed rate", w.failed),
            );
            if !reruns.rerun(w.steal, started) {
                break w;
            }
        };
        per_window.push(format!(
            "p{} {:.0} / p50 {:.0} / slowdown {:.3} / steal {:.1}%",
            w.tail.0,
            w.tail.1,
            median(&w.lat),
            norm.recent_slowdown(6),
            100.0 * w.steal
        ));
        all = Some(match all {
            None => w,
            Some(mut a) => {
                a.lat.extend(w.lat);
                a.missed.extend(w.missed);
                a.checked += w.checked;
                a.late_p99_us = a.late_p99_us.max(w.late_p99_us);
                a
            }
        });
    }
    rep.note(format!(
        "fixed-rate windows, whole stream (us, diagnostic): {}",
        per_window.join(", ")
    ));
    let mut all = all.expect("at least one window");
    all.tail = tail(&miss_latencies(&all));
    Ok(all)
}

/// The latencies of a trial's template-miss requests.
fn miss_latencies(t: &Trial) -> Vec<f64> {
    t.lat
        .iter()
        .zip(&t.missed)
        .filter(|(_, m)| **m)
        .map(|(l, _)| *l)
        .collect()
}

/// The highest offered rate whose tail stays within the limit with no
/// growing backlog. A failing step is confirmed by a second run, and the
/// ladder stops after two confirmed failures in a row. The tails (a
/// growing backlog counts as twice the limit) are smoothed into a
/// non-decreasing curve by pool-adjacent-violators, so one high reading
/// among passing steps does not set the result, and the crossing of the
/// limit is interpolated on that curve.
fn max_rate(
    fx: &mut Fixture,
    cap_ref: f64,
    secs: f64,
    norm: &mut Normaliser,
    reruns: &mut Reruns,
    rep: &mut Report,
) -> Result<(f64, Vec<String>), String> {
    // Sized so that a search ending just past the closed-loop capacity
    // fits in `secs` of reference time.
    let per = secs / 9.0;
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut log = Vec::new();
    let mut step = |fx: &mut Fixture, rate: f64, log: &mut Vec<String>| -> Result<f64, String> {
        let tr = loop {
            let started = Instant::now();
            let tr = open_loop(
                fx,
                rate,
                (rate * per) as usize,
                norm,
                &mut Tracer::off(),
                rep,
            )?;
            rep.attempted += tr.lat.len() as u64;
            rep.fail_ops(
                tr.failed,
                format!("{} failed responses in the rate search", tr.failed),
            );
            log.push(format!(
                "{:.0}/s: p{} {:.0} us over {} requests, backlog {}, generator late p99 {:.0} us, steal {:.1}%",
                tr.rate_ref,
                tr.tail.0,
                tr.tail.1,
                tr.lat.len(),
                tr.backlog,
                tr.late_p99_us,
                100.0 * tr.steal
            ));
            if !reruns.rerun(tr.steal, started) {
                break tr;
            }
        };
        Ok(if tr.backlog {
            tr.tail.1.max(2.0 * LIMIT_US)
        } else {
            tr.tail.1
        })
    };
    let mut fails = 0;
    for f in LADDER {
        let mut eff = step(fx, f * cap_ref, &mut log)?;
        if eff > LIMIT_US {
            // A host stall can fail a step; it only ever adds latency, so
            // a failing step is run once more and keeps the better reading.
            eff = eff.min(step(fx, f * cap_ref, &mut log)?);
        }
        points.push((f * cap_ref, eff));
        fails = if eff > LIMIT_US { fails + 1 } else { 0 };
        if fails == 2 {
            break;
        }
    }
    Ok((crossing(&points, LIMIT_US), log))
}

/// Where the isotonic (non-decreasing) fit of `points` (rate, tail) first
/// exceeds `limit`, interpolated on log tail; the last rate if it never does.
fn crossing(points: &[(f64, f64)], limit: f64) -> f64 {
    // Pool adjacent violators: blocks of (mean, weight).
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &(_, y) in points {
        blocks.push((y, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (b, nb) = blocks.pop().expect("len > 1");
            let (a, na) = blocks.pop().expect("len > 1");
            blocks.push(((a * na as f64 + b * nb as f64) / (na + nb) as f64, na + nb));
        }
    }
    let fit: Vec<f64> = blocks
        .iter()
        .flat_map(|&(m, n)| std::iter::repeat_n(m, n))
        .collect();
    match fit.iter().position(|&y| y > limit) {
        None => points.last().map_or(0.0, |p| p.0),
        Some(0) => points[0].0 * (limit / fit[0]),
        Some(k) => {
            // Tails grow roughly geometrically near saturation: interpolate
            // on their logarithm.
            let (r0, r1) = (points[k - 1].0, points[k].0);
            let (l0, l1, l) = (fit[k - 1].ln(), fit[k].ln(), limit.ln());
            r0 + (r1 - r0) * (l - l0) / (l1 - l0)
        }
    }
}

/// Runs the workload and fills `rep`.
pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let mut fx = Fixture::setup(opts.seed)?;
    // Peak memory at the end of set-up, before any measured phase: every
    // never-seen class adds a template, and how many the measured phases
    // send depends on the steal re-runs and on where the search stops.
    let rss_mb = crate::peak_rss_mb();
    // Client, connection and worker threads share the host's cores;
    // calibrate on two of them at once.
    let mut norm = Normaliser::with_threads(bluefi_core::host_cpus().clamp(1, 2));
    let s = opts.seconds;
    let result = if opts.trace {
        traced(opts, &mut fx, &mut norm, rep)
    } else {
        plain(s, rss_mb, &mut fx, &mut norm, rep)
    };
    rep.note(format!(
        "inputs: {} requests, {} classes primed, {} never-seen classes ({:.2}% miss share), payload lengths {:?}, channels {:?}",
        fx.gen.requests,
        ACTIVE_CLASSES,
        fx.gen.new_classes,
        100.0 * fx.gen.new_classes as f64 / fx.gen.requests.max(1) as f64,
        fx.gen.lengths,
        CHANNELS
    ));
    let st = fx.server.stats();
    rep.note(format!(
        "daemon: {} ok, {} errors, {} shed, {} deadline exceeded",
        st.ok(),
        st.errors(),
        st.shed(),
        st.deadline_exceeded()
    ));
    fx.close();
    result
}

fn plain(
    s: f64,
    rss_mb: f64,
    fx: &mut Fixture,
    norm: &mut Normaliser,
    rep: &mut Report,
) -> Result<(), String> {
    let mut reruns = Reruns::new(Duration::from_secs_f64(RERUN_WALL * s));
    let closed = closed_quiet(fx, (CLOSED_PER_S * s) as usize, norm, &mut reruns, rep)?;
    rep.attempted += closed.rtt.len() as u64;
    rep.fail_ops(
        closed.failed,
        format!("{} failed closed-loop responses", closed.failed),
    );
    let rtt = closed.norm_rtt.clone();
    // Throughput per window of consecutive requests; the median window
    // is reported, so a host stall in one window does not decide it.
    let per_window: Vec<f64> = rtt
        .chunks(CLOSED_WINDOW)
        .map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e6))
        .collect();
    let cap = median(&per_window);
    rep.put("throughput_pps", cap, "1/s");
    let air_per_request = closed.air_us / rtt.len() as f64;
    rep.put("realtime_factor", cap * air_per_request / 1e6, "ratio");

    let fixed = fixed_rate(
        fx,
        (FIXED_PER_S * s) as usize,
        norm,
        &mut Tracer::off(),
        &mut reruns,
        rep,
    )?;
    rep.put("latency_p50_us", median(&fixed.lat), "us");
    rep.put("latency_tail_us", fixed.tail.1, "us");
    rep.note(format!(
        "fixed rate {FIXED_RATE_RPS}/s (reference units): tail is the p{} of the {} template-miss requests among {} requests; {} responses checked; generator late p99 {:.0} us",
        fixed.tail.0,
        miss_latencies(&fixed).len(),
        fixed.lat.len(),
        fixed.checked,
        fixed.late_p99_us
    ));

    rep.put("peak_rss_mb", rss_mb, "MB");
    // Independent searches, median reported: a search is short enough
    // that one host episode can move it.
    let mut rates = Vec::with_capacity(SEARCHES);
    let searching = Instant::now();
    for k in 0..SEARCHES {
        // On a stalled host the searches run long; bound the run's wall
        // time rather than let it grow without limit.
        if k > 0 && searching.elapsed().as_secs_f64() > SEARCH_WALL * s {
            rep.note(format!(
                "max-rate: wall-time budget spent after {k} searches"
            ));
            break;
        }
        let (rate, log) = max_rate(fx, cap, 0.3 * s, norm, &mut reruns, rep)?;
        for l in log {
            rep.note(format!("max-rate search {k} step {l}"));
        }
        rep.note(format!("max-rate search {k}: {rate:.1}/s"));
        rates.push(rate);
    }
    rep.put("max_rate_rps", median(&rates), "1/s");
    rep.note(reruns.summary("host steal"));
    rep.note(format!(
        "closed loop: {} requests, median RTT {:.0} us (normalised); host calib {:.1} us, slowdown {:.3}, spread {:.3} over {} runs",
        rtt.len(),
        median(&rtt),
        norm.calib_us(),
        norm.slowdown(),
        norm.spread(),
        norm.count()
    ));
    Ok(())
}

fn traced(
    opts: &Opts,
    fx: &mut Fixture,
    norm: &mut Normaliser,
    rep: &mut Report,
) -> Result<(), String> {
    let s = opts.seconds;
    let plain = closed_loop(
        fx,
        (CLOSED_PER_S * s / 2.0) as usize,
        norm,
        &mut Tracer::off(),
    )?;
    let mut tr = Tracer::on(1 << 17);
    let traced = closed_loop(fx, (CLOSED_PER_S * s / 2.0) as usize, norm, &mut tr)?;
    let fixed = fixed_rate(
        fx,
        (FIXED_PER_S * s / 2.0) as usize,
        norm,
        &mut tr,
        &mut Reruns::new(Duration::ZERO),
        rep,
    )?;
    for (n, f) in [
        (plain.rtt.len(), plain.failed),
        (traced.rtt.len(), traced.failed),
    ] {
        rep.attempted += n as u64;
        rep.fail_ops(f, "failed daemon responses");
    }
    let rtt_norm = plain.norm_rtt.clone();
    let queue_wait = (median(&fixed.lat) - median(&rtt_norm)).max(0.0);

    let own: BlueFi = cached_config();
    let samples = plain.samples;
    probe::stage_layers(&own, &samples, norm, &mut tr, rep);
    probe::par_layers(&own, &samples, &mut tr, rep);
    probe::loopback_layer(&own, &samples, rep);
    probe::apps_layers(opts.seed, 3, norm, &mut tr, rep);
    // The same request stream again, from the start, on a fresh daemon and
    // engine primed with the same classes.
    let mut gen = FleetGen::new(opts.seed);
    let prime: Vec<Req> = gen.active.iter_mut().map(Class::request).collect();
    let stream: Vec<Req> = (0..160).map(|_| gen.next().0).collect();
    probe::service_layers(&prime, &stream, Some(queue_wait), norm, &mut tr, rep)?;
    probe::host_layers(rep, norm, &plain.rtt, &traced.rtt);
    probe::finish_trace(opts, &tr, rep)
}

#[cfg(test)]
mod tests {
    use super::crossing;

    #[test]
    fn crossing_smooths_a_single_spike() {
        // A spike at 200 pools with the lower 300 point (to 18); the fitted
        // curve crosses 20 between 300 and 400.
        let pts = [
            (100.0, 5.0),
            (200.0, 26.0),
            (300.0, 10.0),
            (400.0, 40.0),
            (500.0, 60.0),
        ];
        let r = crossing(&pts, 20.0);
        assert!(r > 300.0 && r < 400.0, "{r}");
        assert_eq!(crossing(&[(100.0, 5.0), (200.0, 10.0)], 20.0), 200.0);
        assert_eq!(crossing(&[(100.0, 40.0)], 20.0), 50.0);
    }
}
