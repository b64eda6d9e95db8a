//! Per-layer legs shared by the traced runs of every workload: stage
//! replay, the daemon and template cache, the `core::par` fan-out, the
//! apps codec and scheduler, and the air loopback. Each leg takes a small
//! sample of the workload's own inputs, so a layer that is not on a
//! workload's path is still measured on that workload's packets.

use crate::calib::Normaliser;
use crate::replay::{Replayer, StageSample};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::Opts;
use bluefi_bt::br::access_code_bits;
use bluefi_core::json::Json;
use bluefi_core::{
    BatchJob, BlueFi, CachedEngine, CachedScratch, DecodeStrategy, PhaseMode, Synthesis,
    SynthesisBatch, SynthesisScratch,
};
use bluefi_service::proto::{self, write_frame, FrameEvent, FrameReader};
use bluefi_service::{CachedBackend, Server, ServiceConfig};
use bluefi_wifi::channels::{bt_channel_freq_hz, plan_channel, ChannelPlan};
use bluefi_wifi::ChipModel;
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

/// Template store capacity: large enough that no run evicts, so every
/// template miss is a never-seen class.
pub const STORE_BYTES: usize = 1 << 30;

/// The air format of a sampled packet (for the loopback leg).
#[derive(Debug, Clone, Copy)]
pub enum Air {
    /// BLE advertising.
    Ble,
    /// BR baseband with this LAP's access code.
    Br(u32),
}

/// One sampled packet of a workload.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Air bits.
    pub bits: Vec<bool>,
    /// The plan the workload synthesizes it against.
    pub plan: ChannelPlan,
    /// Scrambler seed.
    pub seed: u8,
    /// Bluetooth channel index (for daemon requests).
    pub bt_channel: u8,
    /// Air format.
    pub air: Air,
}

/// One daemon request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Air bits.
    pub bits: Vec<bool>,
    /// Bluetooth channel index; the daemon plans the WiFi channel.
    pub bt_channel: u8,
    /// Scrambler seed.
    pub seed: u8,
}

impl Req {
    /// The plan the daemon derives for this request.
    pub fn plan(&self) -> ChannelPlan {
        plan_channel(bt_channel_freq_hz(self.bt_channel)).expect("requests use plannable channels")
    }

    /// The request as a rendered JSON-RPC frame payload.
    pub fn frame(&self, id: u64) -> Vec<u8> {
        let params = Json::obj(vec![
            (
                "bits",
                Json::Str(proto::hex_encode(&proto::pack_bits(&self.bits))),
            ),
            ("n_bits", Json::Num(self.bits.len() as f64)),
            ("bt_channel", Json::Num(f64::from(self.bt_channel))),
            ("seed", Json::Num(f64::from(self.seed))),
        ]);
        Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".into())),
            ("id", Json::Num(id as f64)),
            ("method", Json::Str("synthesize".into())),
            ("params", params),
        ])
        .render()
        .into_bytes()
    }
}

/// The template-cache engine configuration the daemon serves: Realtime
/// FEC with the anchored phase, the only cache-eligible configuration.
pub fn cached_config() -> BlueFi {
    BlueFi {
        strategy: DecodeStrategy::Realtime,
        phase: PhaseMode::Anchored,
        ..Default::default()
    }
}

/// A raw framed connection to the daemon (requests may be pipelined).
pub struct Conn {
    stream: UnixStream,
    reader: FrameReader,
}

impl Conn {
    /// Connects to the daemon socket.
    pub fn connect(path: &str) -> io::Result<Conn> {
        Ok(Conn {
            stream: UnixStream::connect(path)?,
            reader: FrameReader::new(proto::DEFAULT_MAX_FRAME),
        })
    }

    /// A second handle on the socket for a writer thread.
    pub fn writer(&self) -> io::Result<UnixStream> {
        self.stream.try_clone()
    }

    /// Writes one frame.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Reads one response frame.
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        match self.reader.poll(&mut self.stream) {
            Ok(FrameEvent::Frame(p)) => Ok(p),
            Ok(_) => Err("daemon closed the connection or sent a bad frame".into()),
            Err(e) => Err(format!("daemon read: {e}")),
        }
    }
}

/// Decodes a response payload into its synthesis; `Err` carries the
/// daemon's error (shed, deadline, invalid) or a protocol fault.
pub fn decode_response(payload: &[u8]) -> Result<Synthesis, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 response: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("bad response JSON: {e:?}"))?;
    if let Some(err) = doc.get("error") {
        return Err(format!("daemon error {}", err.render()));
    }
    doc.get("result")
        .and_then(proto::synthesis_from_json)
        .ok_or_else(|| "response without a synthesis".to_string())
}

/// Whether two syntheses agree on every output field, bit for bit.
pub fn same(a: &Synthesis, b: &Synthesis) -> bool {
    a.psdu == b.psdu
        && a.flips == b.flips
        && a.n_symbols == b.n_symbols
        && a.seed == b.seed
        && a.forced_bits == b.forced_bits
        && a.mcs.index == b.mcs.index
        && a.mean_quant_error_db.to_bits() == b.mean_quant_error_db.to_bits()
}

/// A daemon with one worker over a fresh cached backend, at a socket path
/// inside the checkout.
pub fn spawn_daemon(tag: &str) -> Result<(Server, Arc<CachedBackend>, String), String> {
    let path = format!(".bench_out/{tag}-{}.sock", std::process::id());
    let engine = CachedEngine::with_capacity(cached_config(), STORE_BYTES);
    let backend = Arc::new(CachedBackend::new(engine, 1));
    let cfg = ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    let server = Server::spawn(&path, backend.clone(), cfg).map_err(|e| format!("daemon: {e}"))?;
    Ok((server, backend, path))
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Stage replay of every sample under the workload's own configuration,
/// plus the other phase mode and the other FEC strategy so that every
/// stage kernel is timed on this workload's packets. Any replay that is
/// not bit-exact fails the run.
pub fn stage_layers(
    own: &BlueFi,
    samples: &[Sample],
    norm: &Normaliser,
    tr: &mut Tracer,
    rep: &mut Report,
) {
    let other_phase = BlueFi {
        phase: if own.phase == PhaseMode::Anchored {
            PhaseMode::Cumulative
        } else {
            PhaseMode::Anchored
        },
        ..own.clone()
    };
    let other_fec = BlueFi {
        strategy: if own.strategy == DecodeStrategy::Realtime {
            DecodeStrategy::WeightedViterbi
        } else {
            DecodeStrategy::Realtime
        },
        ..own.clone()
    };
    let mut all: Vec<StageSample> = Vec::new();
    let mut own_samples: Vec<StageSample> = Vec::new();
    for (k, bf) in [own, &other_phase, &other_fec].into_iter().enumerate() {
        let mut rp = Replayer::default();
        for (i, s) in samples.iter().enumerate() {
            match rp.replay(bf, &s.bits, s.plan, s.seed, tr, (k * 1000 + i) as u64) {
                Ok(st) => {
                    if k == 0 {
                        own_samples.push(st.clone());
                    }
                    all.push(st);
                }
                Err(field) => {
                    rep.fail(format!("stage replay differs from the pipeline in {field}"))
                }
            }
        }
    }
    let pick = |f: &dyn Fn(&StageSample) -> Option<f64>, from: &[StageSample]| -> f64 {
        let v: Vec<f64> = from.iter().filter_map(f).collect();
        norm.time(median(&v))
    };
    rep.put(
        "bt.gfsk_ns_per_sample",
        pick(&|s| (!s.anchored).then_some(s.phase_ns_per_sample), &all),
        "ns",
    );
    rep.put(
        "bt.anchored_ns_per_sample",
        pick(&|s| s.anchored.then_some(s.phase_ns_per_sample), &all),
        "ns",
    );
    rep.put(
        "fec.viterbi_ns_per_coded_bit",
        pick(&|s| s.viterbi.then_some(s.fec_ns_per_coded_bit), &all),
        "ns",
    );
    rep.put(
        "fec.realtime_ns_per_coded_bit",
        pick(&|s| (!s.viterbi).then_some(s.fec_ns_per_coded_bit), &all),
        "ns",
    );
    rep.put(
        "cp.ns_per_sample",
        pick(&|s| Some(s.cp_ns_per_sample), &own_samples),
        "ns",
    );
    rep.put(
        "qam.ns_per_symbol",
        pick(&|s| Some(s.qam_ns_per_symbol), &own_samples),
        "ns",
    );
    rep.put(
        "wifi.demap_deinterleave_ns_per_symbol",
        pick(&|s| Some(s.demap_ns_per_symbol), &own_samples),
        "ns",
    );
    rep.put(
        "extract.us_per_packet",
        pick(&|s| Some(s.extract_us), &own_samples),
        "us",
    );
    rep.put(
        "pipeline.synth_us",
        pick(&|s| Some(s.pipeline_us), &own_samples),
        "us",
    );
    let flips: Vec<f64> = own_samples.iter().map(|s| s.flips as f64).collect();
    rep.put("fec.flips_per_packet", median(&flips), "count");
    let gaps: Vec<f64> = own_samples
        .iter()
        .map(|s| (s.pipeline_us - s.stages_us) / s.pipeline_us)
        .collect();
    rep.put("pipeline.replay_gap_ratio", median(&gaps), "ratio");
    rep.note(format!(
        "stage replay: {} packets x 3 configurations, bit-exact against the pipeline",
        samples.len()
    ));
}

/// `core::par` fan-out: the samples as one batch at 1 worker and at
/// `min(2, host_cpus)` workers; the outputs must agree.
pub fn par_layers(own: &BlueFi, samples: &[Sample], tr: &mut Tracer, rep: &mut Report) {
    let jobs: Vec<BatchJob> = samples
        .iter()
        .map(|s| BatchJob {
            bits: s.bits.clone(),
            plan: s.plan,
            seed: s.seed,
        })
        .collect();
    let w = bluefi_core::host_cpus().clamp(1, 2);
    let time = |n: usize, tr: &mut Tracer| -> (f64, Vec<Synthesis>) {
        let batch = SynthesisBatch::with_workers(own, n);
        let mut best = Vec::new();
        let mut out = Vec::new();
        for rep_i in 0..3 {
            let s = tr.begin("core.par.SynthesisBatch::synthesize", rep_i);
            let t0 = Instant::now();
            out = batch.synthesize(&jobs);
            best.push(us(t0));
            tr.end(s);
        }
        (median(&best), out)
    };
    let (t1, seq) = time(1, tr);
    let (tw, par) = time(w, tr);
    if seq.len() != par.len() || !seq.iter().zip(&par).all(|(a, b)| same(a, b)) {
        rep.fail("parallel batch output differs from the sequential batch");
    }
    let speedup = t1 / tw;
    rep.put("par.speedup", speedup, "ratio");
    rep.put("par.efficiency", speedup / w as f64, "ratio");
    rep.note(format!("par: {} jobs, {w} workers vs 1", jobs.len()));
}

/// Air loopback through the chip model and the receiver: total bit errors
/// over the samples (a sample that never synchronizes counts all its bits).
/// Not a failure: it is the receiver's residual BER, reported as a count.
pub fn loopback_layer(own: &BlueFi, samples: &[Sample], rep: &mut Report) {
    let chip = ChipModel::ar9331();
    let mut errors = 0usize;
    let mut bits = 0usize;
    let mut scratch = SynthesisScratch::new();
    for s in samples {
        let syn = own
            .synthesize_at_with(&s.bits, s.plan, s.seed, &mut scratch)
            .clone();
        let (e, n) = match s.air {
            Air::Ble => bluefi_core::verify::loopback_ble_bit_errors(&syn, &chip, &s.bits)
                .unwrap_or((s.bits.len() - 40, s.bits.len() - 40)),
            Air::Br(lap) => {
                let ppdu = bluefi_core::verify::transmit(&syn, &chip, chip.default_tx_dbm);
                let rx = bluefi_core::verify::tuned_receiver(&syn);
                let demod = rx.demodulate(&ppdu.iq);
                let truth = &s.bits[72.min(s.bits.len())..];
                match rx.synchronize(&demod, &access_code_bits(lap), truth.len()) {
                    Some(hit) => {
                        let n = truth.len().min(hit.bits.len());
                        let e = truth[..n]
                            .iter()
                            .zip(&hit.bits[..n])
                            .filter(|(a, b)| a != b)
                            .count();
                        (e + truth.len() - n, truth.len())
                    }
                    None => (truth.len(), truth.len()),
                }
            }
        };
        errors += e;
        bits += n;
    }
    rep.put("verify.loopback_bit_errors", errors as f64, "count");
    rep.note(format!(
        "loopback: {errors} bit errors in {bits} bits over {} packets",
        samples.len()
    ));
}

/// SBC encoding and A2DP scheduling on `frames` frames of a seeded clip:
/// `apps.schedule_overhead_us` is `schedule` minus a warm-scratch
/// `synthesize_at_with` on the same bits and plan.
pub fn apps_layers(seed: u64, frames: usize, norm: &Normaliser, tr: &mut Tracer, rep: &mut Report) {
    use bluefi_apps::audio::{A2dpStreamer, AudioConfig};
    use bluefi_apps::sbc::SbcCodec;
    let cfg = AudioConfig::default();
    let spf = cfg.sbc.samples_per_frame();
    let mut clip = crate::gen::PcmClip::new(
        crate::gen::SplitMix64::new(seed, 0xA99),
        f64::from(cfg.sbc.sample_rate_hz),
    );
    let mut codec = SbcCodec::new(cfg.sbc);
    let mut enc = Vec::new();
    for i in 0..64 {
        let pcm = clip.frame(spf);
        let s = tr.begin("apps.sbc.encode_frame", i);
        let t0 = Instant::now();
        std::hint::black_box(codec.encode_frame(&pcm));
        enc.push(us(t0));
        tr.end(s);
    }
    rep.put(
        "apps.sbc_encode_us_per_frame",
        norm.time(median(&enc)),
        "us",
    );

    let mut streamer = A2dpStreamer::new(cfg.clone());
    let rt = BlueFi {
        strategy: DecodeStrategy::Realtime,
        ..Default::default()
    };
    let mut warm = SynthesisScratch::new();
    let mut overhead = Vec::new();
    let mut slot = 0u32;
    for i in 0..frames.max(2) as u64 {
        let media = streamer.media_packets(&clip.frame(spf));
        let s = tr.begin("apps.audio.schedule", i);
        let t0 = Instant::now();
        let sched = streamer.schedule(&media, slot);
        let t_sched = us(t0);
        tr.end(s);
        let mut t_synth = 0.0;
        for p in &sched {
            let (bits, plan) = crate::a2dp::packet_bits(&cfg, p);
            // Warm the scratch on these bits first, then time.
            rt.synthesize_at_with(&bits, plan, 71, &mut warm);
            let t0 = Instant::now();
            rt.synthesize_at_with(&bits, plan, 71, &mut warm);
            t_synth += us(t0);
        }
        if i > 0 {
            // The first call also interns the solver plan for this length.
            overhead.push(t_sched - t_synth);
        }
        slot = sched.last().map_or(slot + 6, |p| p.slot + 6);
    }
    rep.put(
        "apps.schedule_overhead_us",
        norm.time(median(&overhead)),
        "us",
    );
}

/// The daemon and template-cache leg over `reqs`, after `prime` has been
/// sent untimed to both the daemon and the engine: closed-loop round trips
/// through a fresh one-worker daemon, a pipelined burst for queue wait
/// (unless the workload measured it open loop), and the same stream
/// in-process through a fresh `CachedEngine` and a cold `BlueFi`. Every
/// daemon response must equal the in-process result.
pub fn service_layers(
    prime: &[Req],
    reqs: &[Req],
    queue_wait: Option<f64>,
    norm: &Normaliser,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let (server, _, path) = spawn_daemon("probe")?;
    let mut conn = Conn::connect(&path).map_err(|e| format!("connect: {e}"))?;
    for (i, r) in prime.iter().enumerate() {
        conn.send(&r.frame(i as u64))
            .map_err(|e| format!("send: {e}"))?;
        decode_response(&conn.recv()?)?;
    }
    let mut rtt = Vec::new();
    let mut bytes = Vec::new();
    let mut dec = Vec::new();
    let mut remote = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let frame = r.frame(i as u64);
        let s = tr.begin("service.client.synthesize", i as u64);
        let t0 = Instant::now();
        conn.send(&frame).map_err(|e| format!("send: {e}"))?;
        let payload = conn.recv()?;
        rtt.push(us(t0));
        tr.end(s);
        bytes.push(payload.len() as f64);
        let s = tr.begin("service.proto.decode", i as u64);
        let t0 = Instant::now();
        let got = decode_response(&payload);
        dec.push(us(t0));
        tr.end(s);
        remote.push(got);
    }
    let queue_wait = match queue_wait {
        Some(q) => q,
        None => {
            // Pipelined burst: every request written back to back, so each
            // waits behind the ones before it.
            let n = reqs.len().min(32);
            let mut sent = Vec::with_capacity(n);
            for (i, r) in reqs[..n].iter().enumerate() {
                sent.push(Instant::now());
                conn.send(&r.frame(i as u64))
                    .map_err(|e| format!("send: {e}"))?;
            }
            let rtt_med = median(&rtt);
            let mut waits = Vec::with_capacity(n);
            for t in sent {
                let p = conn.recv()?;
                decode_response(&p)?;
                waits.push((us(t) - rtt_med).max(0.0));
            }
            norm.time(median(&waits))
        }
    };
    let (shed, deadline) = (server.stats().shed(), server.stats().deadline_exceeded());
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_file(&path);

    let bf = cached_config();
    let engine = CachedEngine::with_capacity(bf.clone(), STORE_BYTES);
    let mut cs = CachedScratch::new();
    for r in prime {
        engine.synthesize_at_with(&r.bits, r.plan(), r.seed, &mut cs);
    }
    let mut cold_scratch = SynthesisScratch::new();
    let (mut inproc, mut patch, mut miss, mut cold, mut enc) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut mismatches = 0u64;
    for (i, r) in reqs.iter().enumerate() {
        let plan = r.plan();
        let before = engine.store().len();
        let s = tr.begin("core.template.CachedEngine::synthesize_at_with", i as u64);
        let t0 = Instant::now();
        let syn = engine
            .synthesize_at_with(&r.bits, plan, r.seed, &mut cs)
            .clone();
        let dt = us(t0);
        tr.end(s);
        inproc.push(dt);
        if engine.store().len() > before {
            miss.push(dt);
        } else {
            patch.push(dt);
            let s = tr.begin("core.pipeline.synthesize_at_with", i as u64);
            let t0 = Instant::now();
            bf.synthesize_at_with(&r.bits, plan, r.seed, &mut cold_scratch);
            cold.push(us(t0));
            tr.end(s);
        }
        let s = tr.begin("service.proto.encode", i as u64);
        let t0 = Instant::now();
        std::hint::black_box(proto::synthesis_to_json(&syn).render());
        enc.push(us(t0));
        tr.end(s);
        if !matches!(&remote[i], Ok(got) if same(got, &syn)) {
            mismatches += 1;
        }
    }
    rep.fail_ops(
        mismatches,
        format!("{mismatches} daemon responses differ from in-process synthesis"),
    );
    let t = |v: &[f64]| norm.time(median(v));
    rep.put("service.rtt_us", t(&rtt), "us");
    rep.put("service.overhead_us", t(&rtt) - t(&inproc), "us");
    rep.put("service.encode_us", t(&enc), "us");
    rep.put("service.decode_us", t(&dec), "us");
    rep.put("service.response_bytes", median(&bytes), "count");
    rep.put("service.queue_wait_us", queue_wait, "us");
    rep.put("service.shed", shed as f64, "count");
    rep.put("service.deadline_exceeded", deadline as f64, "count");
    rep.put("template.patch_us", t(&patch), "us");
    rep.put("template.miss_us", t(&miss), "us");
    rep.put(
        "template.hit_ratio",
        patch.len() as f64 / reqs.len().max(1) as f64,
        "ratio",
    );
    rep.put(
        "template.bytes_resident",
        engine.store().bytes_resident() as f64,
        "bytes",
    );
    rep.put(
        "template.speedup_vs_cold",
        median(&cold) / median(&patch),
        "ratio",
    );
    rep.note(format!(
        "service leg: {} requests, {} template hits, {} misses",
        reqs.len(),
        patch.len(),
        miss.len()
    ));
    Ok(())
}

/// Diagnostics shared by every traced run: raw host numbers and the
/// traced-versus-untraced overhead.
pub fn host_layers(rep: &mut Report, norm: &Normaliser, plain_raw: &[f64], traced_raw: &[f64]) {
    rep.put("host.calib_us", norm.calib_us(), "us");
    rep.put("host.raw_latency_p50_us", median(plain_raw), "us");
    rep.put("host.raw_latency_tail_us", tail(plain_raw).1, "us");
    rep.put(
        "trace.overhead_ratio",
        median(traced_raw) / median(plain_raw) - 1.0,
        "ratio",
    );
    rep.note(format!(
        "host: calib spread {:.4} over {} kernel runs",
        norm.spread(),
        norm.count()
    ));
}

/// Each sample as a daemon request, then again with one bit flipped three
/// quarters of the way in (a template hit on the same key).
pub fn mutated_pairs(samples: &[Sample]) -> Vec<Req> {
    let mut reqs = Vec::new();
    for s in samples {
        let mut b = s.bits.clone();
        let k = b.len() * 3 / 4;
        b[k] = !b[k];
        reqs.push(Req {
            bits: s.bits.clone(),
            bt_channel: s.bt_channel,
            seed: s.seed,
        });
        reqs.push(Req {
            bits: b,
            bt_channel: s.bt_channel,
            seed: s.seed,
        });
    }
    reqs
}

/// Writes the span file and notes per-span self times.
pub fn finish_trace(opts: &Opts, tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        ".bench_out/{}-seed{}.trace.json",
        opts.workload, opts.seed
    ));
    tr.write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    rep.note(format!(
        "spans: {} recorded ({} dropped) -> {}",
        tr.len(),
        tr.dropped(),
        path.display()
    ));
    for (name, (n, total, selft)) in tr.self_times() {
        rep.note(format!(
            "span {name:<48} n {n:>6} total {total:>12.1} us self {selft:>12.1} us"
        ));
    }
    Ok(())
}
