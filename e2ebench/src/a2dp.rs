//! `a2dp_stream`: a seeded PCM clip streamed one SBC frame at a time
//! through `A2dpStreamer::media_packets` and `schedule` — DM5 packets with
//! the Realtime FEC and the cumulative GFSK phase. Closed loop, single
//! thread.

use crate::calib::Normaliser;
use crate::gen::{PcmClip, SplitMix64};
use crate::probe::{self, Air, Sample};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, windowed_tail, TAIL_WINDOWS};
use crate::Opts;
use bluefi_apps::audio::{A2dpStreamer, AudioConfig, ScheduledPacket};
use bluefi_bt::br::{br_air_bits, BrHeader};
use bluefi_core::{BlueFi, DecodeStrategy};
use bluefi_wifi::channels::ChannelPlan;
use std::time::Instant;

/// Every op re-checks a sampled packet against a fresh synthesis at this
/// period.
const CHECK_EVERY: u64 = 8;

/// The air bits and plan `schedule` synthesized a packet from, rebuilt
/// from the packet's slot, channel and payload.
pub fn packet_bits(cfg: &AudioConfig, p: &ScheduledPacket) -> (Vec<bool>, ChannelPlan) {
    let header = BrHeader {
        lt_addr: 1,
        ptype: cfg.ptype,
        flow: true,
        arqn: false,
        seqn: p.slot.is_multiple_of(4),
    };
    let bits = br_air_bits(cfg.addr, &header, &p.payload, p.clk6_1);
    (bits, crate::gen::plan_under(cfg.wifi_channel, p.bt_channel))
}

/// The streamer, warmed: one frame scheduled (interning the solver plan
/// for the DM5 coded length).
pub struct Fixture {
    cfg: AudioConfig,
    streamer: A2dpStreamer,
    clip: PcmClip,
    slot: u32,
}

impl Fixture {
    /// Builds and warms the streamer for `seed`.
    pub fn setup(seed: u64) -> Result<Fixture, String> {
        let cfg = AudioConfig::default();
        let clip = PcmClip::new(
            SplitMix64::new(seed, 0xA2D9),
            f64::from(cfg.sbc.sample_rate_hz),
        );
        let streamer = A2dpStreamer::new(cfg.clone());
        let mut fx = Fixture {
            cfg,
            streamer,
            clip,
            slot: 0,
        };
        let (_, sched) = fx.step();
        if sched.is_empty() {
            return Err("warm-up frame produced no packet".into());
        }
        Ok(fx)
    }

    /// One frame: PCM → media packet → scheduled DM5 packets. Returns the
    /// raw time of the two calls, µs.
    fn step(&mut self) -> (f64, Vec<ScheduledPacket>) {
        let pcm = self.clip.frame(self.cfg.sbc.samples_per_frame());
        let t0 = Instant::now();
        let media = self.streamer.media_packets(&pcm);
        let sched = self.streamer.schedule(&media, self.slot);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        self.slot = sched.last().map_or(self.slot + 6, |p| p.slot + 6);
        (dt, sched)
    }
}

struct Loop {
    lat: Vec<f64>,
    norm_lat: Vec<f64>,
    packets: u64,
    frames: u64,
    checked: u64,
    mismatches: u64,
    samples: Vec<Sample>,
}

fn stream(fx: &mut Fixture, secs: f64, norm: &mut Normaliser, tr: &mut Tracer) -> Loop {
    let rt = BlueFi {
        strategy: DecodeStrategy::Realtime,
        ..Default::default()
    };
    let lap = fx.cfg.addr.lap;
    let mut out = Loop {
        lat: vec![],
        norm_lat: vec![],
        packets: 0,
        frames: 0,
        checked: 0,
        mismatches: 0,
        samples: vec![],
    };
    norm.sample(5);
    let end = Instant::now() + std::time::Duration::from_secs_f64(secs);
    while Instant::now() < end || out.frames < 3 {
        let s = tr.begin("apps.a2dp.frame", out.frames);
        let (dt, sched) = fx.step();
        tr.end(s);
        out.lat.push(dt);
        out.packets += sched.len() as u64;
        if out.frames.is_multiple_of(CHECK_EVERY) {
            for p in &sched {
                let (bits, plan) = packet_bits(&fx.cfg, p);
                out.checked += 1;
                if !probe::same(&rt.synthesize_at(&bits, plan, 71), &p.synthesis) {
                    out.mismatches += 1;
                }
                if out.samples.len() < 6 {
                    out.samples.push(Sample {
                        bits,
                        plan,
                        seed: 71,
                        bt_channel: p.bt_channel,
                        air: Air::Br(lap),
                    });
                }
            }
        }
        out.frames += 1;
        norm.sample(1);
        out.norm_lat.push(norm.local_time(dt));
    }
    out
}

/// Runs the workload and fills `rep`.
pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let mut fx = Fixture::setup(opts.seed)?;
    let mut norm = Normaliser::new();
    let spf = fx.cfg.sbc.samples_per_frame() as f64;
    let rate = f64::from(fx.cfg.sbc.sample_rate_hz);
    rep.note(format!(
        "inputs: PCM tones {:.0} Hz + {:.0} Hz + noise, {} samples/frame at {rate} Hz, DM5 on WiFi channel {}, audio channels {:?}",
        fx.clip.tone_hz()[0],
        fx.clip.tone_hz()[1],
        spf,
        fx.cfg.wifi_channel,
        fx.streamer.audio_channels()
    ));
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = stream(&mut fx, secs, &mut norm, &mut Tracer::off());
    rep.attempted += plain.frames;
    rep.fail_ops(
        plain.mismatches,
        format!(
            "{} scheduled packets differ from a fresh synthesize_at",
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
    rep.put(
        "realtime_factor",
        plain.frames as f64 * spf / rate / (total_us / 1e6),
        "ratio",
    );
    rep.note(format!(
        "latency per frame (media_packets + schedule): tail is the median of {TAIL_WINDOWS} windows' p{p} over {} frames; {} packets; {} packets checked",
        lat.len(),
        plain.packets,
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
        let traced = stream(&mut fx, secs, &mut norm, &mut tr);
        rep.attempted += traced.frames;
        rep.fail_ops(
            traced.mismatches,
            "traced stream: scheduled packets differ from fresh synthesis",
        );
        let own = BlueFi {
            strategy: DecodeStrategy::Realtime,
            ..Default::default()
        };
        let samples = plain.samples;
        probe::stage_layers(&own, &samples, &norm, &mut tr, rep);
        probe::par_layers(&own, &samples, &mut tr, rep);
        probe::loopback_layer(&own, &samples, rep);
        probe::apps_layers(opts.seed, 8, &norm, &mut tr, rep);
        let reqs = probe::mutated_pairs(&samples);
        probe::service_layers(&[], &reqs, None, &norm, &mut tr, rep)?;
        probe::host_layers(rep, &norm, &plain.lat, &traced.lat);
        probe::finish_trace(opts, &tr, rep)?;
    }
    Ok(())
}
