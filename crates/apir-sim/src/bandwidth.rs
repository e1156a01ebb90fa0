//! Credit-based bandwidth limiting — the QPI link model.
//!
//! The HARP platform gives the FPGA ~7.0 GB/s of QPI bandwidth to shared
//! memory (Section 6.3 / [Choi et al., DAC'16]). We model the link as a
//! byte-credit bucket refilled every cycle; a transfer may start only when
//! enough credit is available. Figure 10's bandwidth sweep multiplies the
//! refill rate.

/// A byte-credit bandwidth meter.
///
/// # Example
///
/// ```
/// use apir_sim::bandwidth::BandwidthMeter;
/// // 7 GB/s at 200 MHz = 35 bytes/cycle.
/// let mut m = BandwidthMeter::from_gbps(7.0, 200);
/// assert!((m.bytes_per_cycle() - 35.0).abs() < 1e-9);
/// m.tick();
/// assert!(m.try_consume(32));
/// assert!(!m.try_consume(64)); // only 3 bytes of credit left
/// ```
#[derive(Clone, Debug)]
pub struct BandwidthMeter {
    bytes_per_cycle: f64,
    credit: f64,
    burst_cap: f64,
    consumed_total: u64,
    cycles: u64,
}

impl BandwidthMeter {
    /// Creates a meter refilling `bytes_per_cycle` with a default burst
    /// window of 4 cycles of credit.
    pub fn new(bytes_per_cycle: f64) -> Self {
        BandwidthMeter {
            bytes_per_cycle,
            credit: 0.0,
            burst_cap: bytes_per_cycle * 4.0,
            consumed_total: 0,
            cycles: 0,
        }
    }

    /// Creates a meter from a link rate in GB/s and a clock in MHz.
    pub fn from_gbps(gbps: f64, clock_mhz: u64) -> Self {
        // GB/s / (MHz * 1e6 cycles/s) = bytes / cycle.
        Self::new(gbps * 1.0e9 / (clock_mhz as f64 * 1.0e6))
    }

    /// Overrides the burst window so at least `bytes` of credit can
    /// accumulate (required when single transfer units exceed a few
    /// cycles' worth of a slow link).
    pub fn with_min_burst(mut self, bytes: u64) -> Self {
        self.burst_cap = self.burst_cap.max(bytes as f64);
        self
    }

    /// The refill rate.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Advances one cycle, accruing credit up to the burst cap.
    pub fn tick(&mut self) {
        self.cycles += 1;
        self.credit = (self.credit + self.bytes_per_cycle).min(self.burst_cap);
    }

    /// Advances `n` cycles at once, bit-exactly equivalent to calling
    /// [`BandwidthMeter::tick`] `n` times.
    ///
    /// The credit accrual is replayed as the same sequence of clamped
    /// float adds (no `credit + n * rate` shortcut, which rounds
    /// differently), but the loop exits as soon as the credit reaches a
    /// fixed point — at the burst cap one more add changes nothing — so
    /// the cost is bounded by the burst window, not by `n`. This is what
    /// lets the event-wheel scheduler skip long quiescent stretches
    /// without perturbing a single bandwidth decision.
    pub fn tick_n(&mut self, n: u64) {
        self.cycles += n;
        for _ in 0..n {
            let next = (self.credit + self.bytes_per_cycle).min(self.burst_cap);
            if next == self.credit {
                break;
            }
            self.credit = next;
        }
    }

    /// How many further ticks until `bytes` of credit are available, by
    /// exact replay of the accrual sequence, looking at most `limit`
    /// ticks ahead. `Some(0)` means [`BandwidthMeter::try_consume`] would
    /// already succeed; `None` means the credit saturates below `bytes`
    /// (the transfer can never start on refills alone) or needs more
    /// than `limit` ticks. Never underestimates readiness, so an
    /// event-wheel wake at `now + k` lands exactly when the dense loop
    /// would first admit the transfer.
    pub fn cycles_until(&self, bytes: u64, limit: u64) -> Option<u64> {
        let need = bytes as f64;
        if self.credit >= need {
            return Some(0);
        }
        let mut credit = self.credit;
        let mut k = 0u64;
        loop {
            let next = (credit + self.bytes_per_cycle).min(self.burst_cap);
            if next == credit || k == limit {
                return None;
            }
            credit = next;
            k += 1;
            if credit >= need {
                return Some(k);
            }
        }
    }

    /// Attempts to consume `bytes` of credit.
    pub fn try_consume(&mut self, bytes: u64) -> bool {
        if self.credit >= bytes as f64 {
            self.credit -= bytes as f64;
            self.consumed_total += bytes;
            true
        } else {
            false
        }
    }

    /// Total bytes transferred so far.
    pub fn consumed_total(&self) -> u64 {
        self.consumed_total
    }

    /// Checkpoint state: `(credit_bits, consumed_total, cycles)`. The
    /// credit is exposed as raw `f64` bits so a JSON round trip cannot
    /// perturb a single bandwidth decision on restore.
    pub fn state(&self) -> (u64, u64, u64) {
        (self.credit.to_bits(), self.consumed_total, self.cycles)
    }

    /// Restores state captured by [`BandwidthMeter::state`]. The rate and
    /// burst cap are structural (rebuilt from configuration), so only the
    /// mutable fields are overwritten.
    pub fn restore_state(&mut self, credit_bits: u64, consumed_total: u64, cycles: u64) {
        self.credit = f64::from_bits(credit_bits);
        self.consumed_total = consumed_total;
        self.cycles = cycles;
    }

    /// Achieved bandwidth utilization in `[0, 1]` (bytes moved over bytes
    /// offered).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.consumed_total as f64 / (self.bytes_per_cycle * self.cycles as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_and_consume() {
        let mut m = BandwidthMeter::new(10.0);
        assert!(!m.try_consume(5)); // no credit before first tick
        m.tick();
        assert!(m.try_consume(10));
        assert!(!m.try_consume(1));
    }

    #[test]
    fn burst_cap_limits_accrual() {
        let mut m = BandwidthMeter::new(10.0);
        for _ in 0..100 {
            m.tick();
        }
        // Burst cap is 4 cycles of credit.
        assert!(m.try_consume(40));
        assert!(!m.try_consume(1));
    }

    #[test]
    fn sustained_rate_matches_configuration() {
        let mut m = BandwidthMeter::new(8.0);
        let mut moved = 0u64;
        for _ in 0..1000 {
            m.tick();
            while m.try_consume(16) {
                moved += 16;
            }
        }
        let rate = moved as f64 / 1000.0;
        assert!((rate - 8.0).abs() < 0.5, "rate {rate}");
        assert!(m.utilization() > 0.95);
    }

    #[test]
    fn tick_n_is_bit_exact_with_sequential_ticks() {
        // An awkward non-dyadic rate so float rounding would expose any
        // closed-form shortcut.
        let mut bulk = BandwidthMeter::from_gbps(1.0, 300).with_min_burst(64);
        let mut seq = bulk.clone();
        for n in [0u64, 1, 3, 1000, 7] {
            bulk.tick_n(n);
            for _ in 0..n {
                seq.tick();
            }
            assert_eq!(bulk.cycles, seq.cycles);
            assert_eq!(bulk.credit.to_bits(), seq.credit.to_bits(), "after +{n}");
        }
        assert!(bulk.try_consume(64));
        assert!(seq.try_consume(64));
        assert_eq!(bulk.credit.to_bits(), seq.credit.to_bits());
    }

    #[test]
    fn cycles_until_predicts_first_admission_exactly() {
        let mut m = BandwidthMeter::from_gbps(1.0, 300).with_min_burst(64);
        m.tick();
        assert!(!m.try_consume(64));
        let k = m
            .cycles_until(64, u64::MAX)
            .expect("64 fits under the burst cap");
        assert!(k > 0);
        // The look-ahead bound is inclusive.
        assert_eq!(m.cycles_until(64, k), Some(k));
        assert_eq!(m.cycles_until(64, k - 1), None);
        let mut probe = m.clone();
        for i in 0..k {
            assert!(!probe.try_consume(64), "ready {i} cycles early");
            probe.tick();
        }
        assert!(probe.try_consume(64), "not ready after {k} cycles");
        // Already-available credit reports zero.
        let mut full = BandwidthMeter::new(10.0);
        full.tick();
        assert_eq!(full.cycles_until(5, 0), Some(0));
        // Saturating below the request reports None.
        assert_eq!(full.cycles_until(1_000_000, u64::MAX), None);
    }

    #[test]
    fn gbps_conversion() {
        let m = BandwidthMeter::from_gbps(7.0, 200);
        assert!((m.bytes_per_cycle() - 35.0).abs() < 1e-9);
        let m2 = BandwidthMeter::from_gbps(14.0, 200);
        assert!((m2.bytes_per_cycle() - 70.0).abs() < 1e-9);
    }
}
