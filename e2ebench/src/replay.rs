//! Stage replay: one packet through `BlueFi::synthesize_at_with`, then the
//! same packet again through each stage's public `_into` entry point, each
//! timed under its own span. The replay must reproduce the pipeline's PSDU,
//! flips and quantization error bit for bit.

use crate::spans::Tracer;
use bluefi_bt::anchored::AnchoredModulator;
use bluefi_bt::gfsk::GfskScratch;
use bluefi_coding::ViterbiScratch;
use bluefi_core::qam::QuantizedSymbol;
use bluefi_core::reversal::{extract_psdu_into, reverse_fec_with, Reversal};
use bluefi_core::{BlueFi, DecodeStrategy, PhaseMode, Quantizer, Synthesis, SynthesisScratch};
use bluefi_dsp::Cx;
use bluefi_wifi::channels::ChannelPlan;
use bluefi_wifi::qam::demap_point_into;
use bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi_wifi::Interleaver;
use std::time::Instant;

/// Raw (not yet normalised) stage timings of one replayed packet.
#[derive(Debug, Clone, Default)]
pub struct StageSample {
    /// Whether the anchored phase path ran (else cumulative GFSK).
    pub anchored: bool,
    /// Whether the weighted Viterbi ran (else the real-time solver).
    pub viterbi: bool,
    /// GFSK or anchored fill, ns per phase sample produced.
    pub phase_ns_per_sample: f64,
    /// CP compatibility, ns per output sample.
    pub cp_ns_per_sample: f64,
    /// FFT + constellation quantization, ns per OFDM symbol.
    pub qam_ns_per_symbol: f64,
    /// Demap + deinterleave, ns per OFDM symbol.
    pub demap_ns_per_symbol: f64,
    /// FEC reversal, ns per coded bit.
    pub fec_ns_per_coded_bit: f64,
    /// Descramble and pack, µs.
    pub extract_us: f64,
    /// The whole pipeline call, µs.
    pub pipeline_us: f64,
    /// Sum of the stage replays, µs.
    pub stages_us: f64,
    /// Coded-bit flips in the packet.
    pub flips: usize,
}

/// Buffers for replaying one configuration; one per configuration so the
/// Viterbi repeat-decode memo never sees the same stream twice in a row.
#[derive(Default)]
pub struct Replayer {
    pipe: SynthesisScratch,
    gfsk: GfskScratch,
    phase: Vec<f64>,
    theta_ext: Vec<f64>,
    theta_hat: Vec<f64>,
    fft_buf: Vec<Cx>,
    sym: QuantizedSymbol,
    demap: Vec<bool>,
    interleaved: Vec<bool>,
    block: Vec<bool>,
    coded: Vec<bool>,
    weights: Vec<u32>,
    vit: ViterbiScratch,
    rev: Reversal,
    psdu: Vec<u8>,
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

impl Replayer {
    /// Replays one packet. `Err` names the first field where the stage
    /// replay and the pipeline disagree.
    pub fn replay(
        &mut self,
        bf: &BlueFi,
        bits: &[bool],
        plan: ChannelPlan,
        seed: u8,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<StageSample, String> {
        let root = tr.begin("replay", op);
        let s = tr.begin("pipeline.synthesize_at_with", op);
        let t0 = Instant::now();
        let want: Synthesis = bf
            .synthesize_at_with(bits, plan, seed, &mut self.pipe)
            .clone();
        let pipeline_us = us(t0);
        tr.end(s);

        let mcs = bf.strategy.mcs();
        let offset_hz = plan.tx_subcarrier * SUBCARRIER_SPACING_HZ;
        let offset_cps = offset_hz / bf.gfsk.sample_rate_hz;
        let am = if bf.phase == PhaseMode::Anchored {
            AnchoredModulator::new(&bf.gfsk)
        } else {
            None
        };
        let quantizer = Quantizer::new(mcs.modulation, bf.scale);
        let il = Interleaver::new(mcs.modulation);
        let mut out = StageSample {
            anchored: am.is_some(),
            viterbi: bf.strategy == DecodeStrategy::WeightedViterbi,
            pipeline_us,
            ..StageSample::default()
        };

        let (phase_us, n_phase, cp_us) = match &am {
            Some(am) => {
                let s = tr.begin("bt.anchored.fill_ext", op);
                let t0 = Instant::now();
                let phase_len = (bits.len() + 2 * bf.gfsk.guard_bits) * bf.gfsk.sps();
                let ext_len = bf.cp.n_blocks(phase_len.max(1)) * bf.cp.block_len() + 1;
                am.fill_ext(bits, offset_cps, ext_len, &mut self.theta_ext);
                let phase_us = us(t0);
                tr.end(s);
                let s = tr.begin("core.cp.pocket_map_into", op);
                let t0 = Instant::now();
                bf.cp.pocket_map_into(&self.theta_ext, &mut self.theta_hat);
                let cp_us = us(t0);
                tr.end(s);
                (phase_us, self.theta_ext.len(), cp_us)
            }
            None => {
                let s = tr.begin("bt.gfsk.modulate_phase_into", op);
                let t0 = Instant::now();
                self.gfsk
                    .modulate_phase_into(bits, &bf.gfsk, offset_hz, &mut self.phase);
                let phase_us = us(t0);
                tr.end(s);
                let s = tr.begin("core.cp.make_compatible_into", op);
                let t0 = Instant::now();
                bf.cp.make_compatible_into(
                    &self.phase,
                    offset_cps,
                    &mut self.theta_ext,
                    &mut self.theta_hat,
                );
                let cp_us = us(t0);
                tr.end(s);
                (phase_us, self.phase.len(), cp_us)
            }
        };
        out.phase_ns_per_sample = phase_us * 1e3 / n_phase.max(1) as f64;
        out.cp_ns_per_sample = cp_us * 1e3 / self.theta_hat.len().max(1) as f64;

        let bl = bf.cp.block_len();
        let n_symbols = self.theta_hat.len() / bl;
        let ncbps = il.block_len();
        let bps = mcs.modulation.bits_per_symbol();
        let w_of: Vec<u32> = (0..ncbps)
            .map(|k| {
                bf.weights
                    .weight_at(il.subcarrier_of(k), plan.tx_subcarrier)
            })
            .collect();
        self.coded.clear();
        self.weights.clear();
        self.interleaved.resize(ncbps, false);
        let (mut qam_us, mut demap_us, mut err_sum) = (0.0, 0.0, 0.0);
        let sq = tr.begin("replay.symbol_loop", op);
        let loop_start = Instant::now();
        for b in 0..n_symbols {
            let body = &self.theta_hat[b * bl + bf.cp.cp_len..(b + 1) * bl];
            let t0 = Instant::now();
            quantizer.quantize_body_into(body, &mut self.fft_buf, &mut self.sym);
            err_sum += self
                .sym
                .in_band_error_db(plan.tx_subcarrier, bf.weights.band);
            qam_us += us(t0);
            let t0 = Instant::now();
            for (d, &p) in self.sym.points.iter().enumerate() {
                demap_point_into(mcs.modulation, p, &mut self.demap);
                self.interleaved[d * bps..(d + 1) * bps].copy_from_slice(&self.demap);
            }
            il.deinterleave_into(&self.interleaved, &mut self.block);
            self.coded.extend_from_slice(&self.block);
            self.weights.extend_from_slice(&w_of);
            demap_us += us(t0);
        }
        // The fused per-symbol loop interleaves the two stages; each gets
        // a child span of its summed duration, laid end to end.
        let q_end = loop_start + std::time::Duration::from_secs_f64(qam_us / 1e6);
        let d_end = q_end + std::time::Duration::from_secs_f64(demap_us / 1e6);
        tr.record("core.qam.quantize_body_into", op, loop_start, q_end);
        tr.record("wifi.demap_deinterleave_into", op, q_end, d_end);
        tr.end(sq);
        out.qam_ns_per_symbol = qam_us * 1e3 / n_symbols.max(1) as f64;
        out.demap_ns_per_symbol = demap_us * 1e3 / n_symbols.max(1) as f64;
        let mean_quant_error_db = err_sum / n_symbols.max(1) as f64;

        let s = tr.begin("core.reversal.reverse_fec_with", op);
        let t0 = Instant::now();
        reverse_fec_with(
            &self.coded,
            &self.weights,
            bf.strategy,
            plan.tx_subcarrier,
            &mut self.vit,
            &mut self.rev,
        );
        let fec_us = us(t0);
        tr.end(s);
        out.fec_ns_per_coded_bit = fec_us * 1e3 / self.coded.len().max(1) as f64;

        let s = tr.begin("core.reversal.extract_psdu_into", op);
        let t0 = Instant::now();
        let forced = extract_psdu_into(&mut self.rev.scrambled, seed, &mut self.psdu);
        out.extract_us = us(t0);
        tr.end(s);
        tr.end(root);

        out.stages_us = phase_us + cp_us + qam_us + demap_us + fec_us + out.extract_us;
        out.flips = self.rev.flips.len();
        if self.psdu != want.psdu {
            return Err("psdu".into());
        }
        if self.rev.flips != want.flips {
            return Err("flips".into());
        }
        if n_symbols != want.n_symbols || forced != want.forced_bits {
            return Err("symbol/forced-bit count".into());
        }
        if mean_quant_error_db.to_bits() != want.mean_quant_error_db.to_bits() {
            return Err("mean quantization error".into());
        }
        Ok(out)
    }
}
