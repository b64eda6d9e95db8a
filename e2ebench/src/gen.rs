//! Seeded input generation. The generator lives here rather than in
//! `core::rng`, so a change to the program cannot reshape the inputs.

use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
use bluefi_wifi::channels::{
    bt_channel_freq_hz, distance_to_pilot_or_null, subcarrier_in_channel, ChannelPlan,
    MAX_SNAP_SUBCARRIERS,
};

/// SplitMix64 (Steele, Lea and Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` and a stream label, so each workload phase
    /// draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// An exponential inter-arrival gap for a Poisson process at `rate`.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// On-air bits of a non-connectable advertising PDU whitened for BLE
/// advertising channel `adv_channel` (37–39).
pub fn adv_bits(address: [u8; 6], data: &[u8], adv_channel: u8) -> Vec<bool> {
    let pdu = AdvPdu {
        pdu_type: AdvPduType::AdvNonconnInd,
        adv_address: address,
        adv_data: data.to_vec(),
        tx_add: false,
    };
    adv_air_bits(&pdu, adv_channel)
}

/// The plan for Bluetooth channel `bt_channel` pinned under WiFi channel
/// `wifi_channel`, snapped to an integer subcarrier within the carrier
/// tolerance (the placement the A2DP scheduler uses).
pub fn plan_under(wifi_channel: u8, bt_channel: u8) -> ChannelPlan {
    let sub = subcarrier_in_channel(bt_channel_freq_hz(bt_channel), wifi_channel);
    let tx = if (sub.round() - sub).abs() <= MAX_SNAP_SUBCARRIERS {
        sub.round()
    } else {
        sub
    };
    ChannelPlan {
        wifi_channel,
        subcarrier: sub,
        tx_subcarrier: tx,
        clearance: distance_to_pilot_or_null(tx),
    }
}

/// A seeded PCM source: two tones with seeded frequencies and levels plus
/// white noise, produced one frame at a time.
#[derive(Debug, Clone)]
pub struct PcmClip {
    rng: SplitMix64,
    tones: [(f64, f64); 2],
    noise: f64,
    t: u64,
    rate_hz: f64,
}

impl PcmClip {
    /// A clip at `rate_hz` drawn from `rng`.
    pub fn new(mut rng: SplitMix64, rate_hz: f64) -> PcmClip {
        let tones = [
            (200.0 + 1800.0 * rng.unit(), 0.15 + 0.2 * rng.unit()),
            (2000.0 + 6000.0 * rng.unit(), 0.05 + 0.15 * rng.unit()),
        ];
        let noise = 0.01 + 0.04 * rng.unit();
        PcmClip {
            rng,
            tones,
            noise,
            t: 0,
            rate_hz,
        }
    }

    /// The next `n` samples.
    pub fn frame(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let t = self.t as f64 / self.rate_hz;
                self.t += 1;
                let tone: f64 = self
                    .tones
                    .iter()
                    .map(|(f, a)| a * (2.0 * std::f64::consts::PI * f * t).sin())
                    .sum();
                tone + self.noise * (2.0 * self.rng.unit() - 1.0)
            })
            .collect()
    }

    /// The two tone frequencies, Hz.
    pub fn tone_hz(&self) -> [f64; 2] {
        [self.tones[0].0, self.tones[1].0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(8, 1).next_u64()
        );
    }

    #[test]
    fn splitmix_matches_the_reference_sequence() {
        // SplitMix64 seeded with 0 produces 0xE220A8397B1DCDAF first.
        let mut g = SplitMix64(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }
}
