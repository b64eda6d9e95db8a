//! `cold_batch`: distinct BLE advertising packets — seeded lengths,
//! addresses and usable Bluetooth channels under WiFi channel 3 (the Fig 9
//! set) — through the default WeightedViterbi `BlueFi`, eight at a time
//! through `SynthesisBatch::with_workers(min(2, nproc))`. Closed loop; no
//! payload repeats, so the Viterbi repeat-decode memo never hits.

use crate::calib::Normaliser;
use crate::gen::{adv_bits, plan_under, SplitMix64};
use crate::probe::{self, Air, Req, Sample};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, windowed_tail, TAIL_WINDOWS};
use crate::Opts;
use bluefi_core::{BatchJob, BlueFi, SynthesisBatch, SynthesisScratch};
use bluefi_wifi::channels::usable_bt_channels_in_wifi;
use std::collections::BTreeMap;
use std::time::Instant;

const BATCH: usize = 8;
/// Advertising-data lengths are uniform in `MIN_LEN..MIN_LEN + LEN_SPAN`.
const MIN_LEN: usize = 8;
const LEN_SPAN: usize = 24;
const WIFI_CHANNEL: u8 = 3;
/// Every this many batches, the parallel output is re-checked against a
/// sequential synthesis of the same jobs.
const CHECK_EVERY: u64 = 4;

/// The packet generator with its input census.
pub struct Packets {
    rng: SplitMix64,
    channels: Vec<u8>,
    counter: u64,
    lengths: BTreeMap<usize, u64>,
    per_channel: BTreeMap<u8, u64>,
}

impl Packets {
    fn new(seed: u64, stream: u64) -> Packets {
        Packets {
            rng: SplitMix64::new(seed, stream),
            channels: usable_bt_channels_in_wifi(WIFI_CHANNEL),
            counter: 0,
            lengths: BTreeMap::new(),
            per_channel: BTreeMap::new(),
        }
    }

    /// The next distinct packet: random address and advertising data of
    /// 8–31 bytes whose first four bytes are a running counter.
    fn next(&mut self) -> (BatchJob, u8) {
        let len = MIN_LEN + self.rng.below(LEN_SPAN);
        self.packet(len)
    }

    fn packet(&mut self, len: usize) -> (BatchJob, u8) {
        let mut data = self.rng.bytes(len);
        data[..4].copy_from_slice(&(self.counter as u32).to_le_bytes());
        self.counter += 1;
        let mut addr = [0u8; 6];
        addr.copy_from_slice(&self.rng.bytes(6));
        let adv = 37 + self.rng.below(3) as u8;
        let ch = self.channels[self.rng.below(self.channels.len())];
        let seed = 1 + self.rng.below(127) as u8;
        *self.lengths.entry(len).or_default() += 1;
        *self.per_channel.entry(ch).or_default() += 1;
        (
            BatchJob {
                bits: adv_bits(addr, &data, adv),
                plan: plan_under(WIFI_CHANNEL, ch),
                seed,
            },
            ch,
        )
    }

    fn batch(&mut self) -> Vec<(BatchJob, u8)> {
        (0..BATCH).map(|_| self.next()).collect()
    }
}

/// The configuration, the worker count and a generator, warmed by one
/// batch.
pub struct Fixture {
    bf: BlueFi,
    workers: usize,
    gen: Packets,
}

impl Fixture {
    /// Builds and warms the batch engine for `seed`.
    pub fn setup(seed: u64) -> Result<Fixture, String> {
        let bf = BlueFi::default();
        let workers = bluefi_core::host_cpus().clamp(1, 2);
        // One packet of every advertising-data length in the mix, so each
        // coded length's trellis plan is interned before timing starts.
        let mut warm = Packets::new(seed, 0xC01D0);
        let jobs: Vec<BatchJob> = (MIN_LEN..MIN_LEN + LEN_SPAN)
            .map(|len| warm.packet(len).0)
            .collect();
        let out = SynthesisBatch::with_workers(&bf, workers).synthesize(&jobs);
        if out.len() != jobs.len() {
            return Err("warm-up batch lost jobs".into());
        }
        Ok(Fixture {
            bf,
            workers,
            gen: Packets::new(seed, 0xC01D1),
        })
    }
}

struct Loop {
    lat: Vec<f64>,
    norm_lat: Vec<f64>,
    packets: u64,
    air_us: f64,
    checked: u64,
    mismatches: u64,
    samples: Vec<Sample>,
}

fn batches(fx: &mut Fixture, secs: f64, norm: &mut Normaliser, tr: &mut Tracer) -> Loop {
    let engine = SynthesisBatch::with_workers(&fx.bf, fx.workers);
    let mut seq = SynthesisScratch::new();
    let mut out = Loop {
        lat: vec![],
        norm_lat: vec![],
        packets: 0,
        air_us: 0.0,
        checked: 0,
        mismatches: 0,
        samples: vec![],
    };
    norm.sample(5);
    let end = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut n = 0u64;
    while Instant::now() < end || n < 3 {
        let batch = fx.gen.batch();
        let jobs: Vec<BatchJob> = batch.iter().map(|(j, _)| j.clone()).collect();
        let s = tr.begin("core.par.SynthesisBatch::synthesize", n);
        let t0 = Instant::now();
        let syns = engine.synthesize(&jobs);
        out.lat.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.end(s);
        out.packets += jobs.len() as u64;
        out.air_us += jobs.iter().map(|j| j.bits.len() as f64).sum::<f64>();
        if n.is_multiple_of(CHECK_EVERY) {
            for (j, got) in jobs.iter().zip(&syns) {
                out.checked += 1;
                if !probe::same(
                    fx.bf.synthesize_at_with(&j.bits, j.plan, j.seed, &mut seq),
                    got,
                ) {
                    out.mismatches += 1;
                }
            }
        }
        if out.samples.len() < 8 {
            for (j, ch) in batch.iter().take(2) {
                out.samples.push(Sample {
                    bits: j.bits.clone(),
                    plan: j.plan,
                    seed: j.seed,
                    bt_channel: *ch,
                    air: Air::Ble,
                });
            }
        }
        n += 1;
        norm.sample(1);
        out.norm_lat
            .push(norm.local_time(out.lat[out.lat.len() - 1]));
    }
    out
}

/// Runs the workload and fills `rep`.
pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let mut fx = Fixture::setup(opts.seed)?;
    // The batch keeps `workers` cores busy; calibrate on as many.
    let mut norm = Normaliser::with_threads(fx.workers);
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = batches(&mut fx, secs, &mut norm, &mut Tracer::off());
    rep.attempted += plain.packets;
    rep.fail_ops(
        plain.mismatches,
        format!(
            "{} batch outputs differ from sequential synthesis",
            plain.mismatches
        ),
    );

    let lat = plain.norm_lat.clone();
    let total_us: f64 = lat.iter().sum();
    let (p, tail_v) = windowed_tail(&lat, TAIL_WINDOWS);
    rep.put("latency_p50_us", median(&lat), "us");
    rep.put("latency_tail_us", tail_v, "us");
    let pps = plain.packets as f64 / (total_us / 1e6);
    rep.put("throughput_pps", pps, "1/s");
    rep.put("max_rate_rps", pps, "1/s");
    rep.put("realtime_factor", plain.air_us / total_us, "ratio");
    rep.note(format!(
        "inputs: {} packets, adv data lengths {:?}, BT channels under WiFi {WIFI_CHANNEL} {:?}",
        fx.gen.counter, fx.gen.lengths, fx.gen.per_channel
    ));
    rep.note(format!(
        "latency per batch of {BATCH} on {} workers: tail is the median of {TAIL_WINDOWS} windows' p{p} over {} batches; {} packets checked against sequential synthesis",
        fx.workers,
        lat.len(),
        plain.checked
    ));
    rep.note(format!(
        "host: calib {:.1} us (slowdown {:.3}, spread {:.3} over {} runs); raw p50 {:.1} us",
        norm.calib_us(),
        norm.slowdown(),
        norm.spread(),
        norm.count(),
        median(&plain.lat)
    ));
    rep.note("max_rate_rps: closed-loop saturation rate (equals throughput_pps; no open-loop search here)");

    if opts.trace {
        let mut tr = Tracer::on(1 << 16);
        let traced = batches(&mut fx, secs, &mut norm, &mut tr);
        rep.attempted += traced.packets;
        rep.fail_ops(
            traced.mismatches,
            "traced batches differ from sequential synthesis",
        );
        let samples = plain.samples;
        probe::stage_layers(&fx.bf, &samples, &norm, &mut tr, rep);
        probe::par_layers(&fx.bf, &samples, &mut tr, rep);
        probe::loopback_layer(&fx.bf, &samples, rep);
        probe::apps_layers(opts.seed, 3, &norm, &mut tr, rep);
        let reqs: Vec<Req> = probe::mutated_pairs(&samples);
        probe::service_layers(&[], &reqs, None, &norm, &mut tr, rep)?;
        probe::host_layers(rep, &norm, &plain.lat, &traced.lat);
        probe::finish_trace(opts, &tr, rep)?;
    }
    Ok(())
}
