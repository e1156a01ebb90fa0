//! The generic (problem-independent) memory subsystem.
//!
//! Section 5.2: "we use a generic cache design provided by HARP. In this
//! way, the memory subsystem is kept problem-independent." The model is a
//! direct-mapped FPGA-side cache in front of a QPI link:
//!
//! * cache hit: fixed pipeline latency (HARP: ~70 ns = 14 cycles at
//!   200 MHz, per Choi et al. DAC'16);
//! * cache miss: one cache-line transfer charged against the link's
//!   byte-credit meter plus the miss latency (>200 ns on HARP);
//! * writes are write-through/no-allocate, charging one word;
//! * misses in flight are bounded by an MSHR-style limit.
//!
//! Loads and RMW stores act on the [`MemImage`] *at completion time*, so
//! concurrent read-modify-writes serialize in completion order, exactly
//! like commit units behind a memory arbiter. Because dropped or retried
//! transfers have no functional effect until they complete, the fault
//! layer ([`crate::fault`]) can replay them arbitrarily without ever
//! double-applying a store.

use crate::fault::{FaultConfig, FaultPlan, FaultStats, LinkFault, SoftError};
use crate::snapshot;
use crate::types::{MemReq, WriteKind};
use apir_util::json::Json;
use apir_sim::bandwidth::BandwidthMeter;
use apir_sim::delay::DelayLine;
use apir_sim::fifo::Fifo;
use apir_sim::metrics::{CounterId, GaugeId, LevelStat, MetricsRegistry};
use apir_sim::stats::StallCause;
use apir_sim::{cycles_from_ns, Cycle};
use apir_core::{MemAccess, MemImage};
use std::collections::VecDeque;

/// Memory subsystem parameters (defaults: the HARP platform).
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// FPGA-side cache size in KiB.
    pub cache_kb: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Cache hit latency in cycles.
    pub hit_latency: Cycle,
    /// Additional miss latency in nanoseconds (on top of the hit path).
    pub miss_extra_ns: f64,
    /// QPI link bandwidth in GB/s (the Figure 10 sweep scales this).
    pub qpi_gbps: f64,
    /// FPGA clock in MHz (needed to convert ns and GB/s to cycles).
    pub clock_mhz: u64,
    /// Maximum misses in flight (MSHR count).
    pub max_inflight_misses: usize,
    /// Requests accepted from the request FIFO per cycle.
    pub requests_per_cycle: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            cache_kb: 64,
            line_bytes: 64,
            hit_latency: 14,
            miss_extra_ns: 200.0,
            qpi_gbps: 7.0,
            clock_mhz: 200,
            max_inflight_misses: 32,
            requests_per_cycle: 4,
        }
    }
}

/// Statistics of the memory subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Read hits.
    pub hits: u64,
    /// Read misses.
    pub misses: u64,
    /// Bytes moved over the link.
    pub qpi_bytes: u64,
}

/// Handles for the memory subsystem's stable metric keys (`mem.*`).
#[derive(Clone, Copy, Debug)]
pub struct MemMetrics {
    reads: CounterId,
    writes: CounterId,
    hits: CounterId,
    misses: CounterId,
    qpi_bytes: CounterId,
    inflight: GaugeId,
}

impl MemMetrics {
    /// Registers the `mem.*` keys. The two per-cycle statistics are
    /// levels, appended to `levels`: the in-flight histogram
    /// ([`MemorySubsystem::inflight`]) and the admission stall counters
    /// ([`MemorySubsystem::stall_cause`]).
    pub fn register(m: &mut MetricsRegistry, levels: &mut Vec<LevelStat>) -> Self {
        levels.push(LevelStat::histogram(m.histogram("mem.inflight_hist")));
        let stall = m.counter("mem.stall");
        let cause = |m: &mut MetricsRegistry, c: StallCause| {
            (c, m.counter(&format!("mem.stall.{}", c.key())))
        };
        let causes = [cause(m, StallCause::MshrFull), cause(m, StallCause::Bandwidth)];
        levels.push(LevelStat::stall(stall, causes));
        MemMetrics {
            reads: m.counter("mem.reads"),
            writes: m.counter("mem.writes"),
            hits: m.counter("mem.hits"),
            misses: m.counter("mem.misses"),
            qpi_bytes: m.counter("mem.qpi_bytes"),
            inflight: m.gauge("mem.inflight"),
        }
    }
}

struct TagArray {
    tags: Vec<u64>, // tag + 1, 0 = invalid
    num_lines: usize,
}

impl TagArray {
    fn new(cache_bytes: usize, line_bytes: usize) -> Self {
        let num_lines = (cache_bytes / line_bytes).max(1);
        TagArray {
            tags: vec![0; num_lines],
            num_lines,
        }
    }

    /// Probes (and on miss, allocates) the line containing word address
    /// `addr_words`. Returns hit/miss.
    fn access(&mut self, addr_words: u64, line_words: u64, allocate: bool) -> bool {
        let line = addr_words / line_words;
        let set = (line % self.num_lines as u64) as usize;
        let tag = line / self.num_lines as u64 + 1;
        if self.tags[set] == tag {
            true
        } else {
            if allocate {
                self.tags[set] = tag;
            }
            false
        }
    }

    /// Invalidates the line containing `addr_words` if it is resident
    /// (uncorrectable soft error: the data cannot be trusted).
    fn invalidate(&mut self, addr_words: u64, line_words: u64) {
        let line = addr_words / line_words;
        let set = (line % self.num_lines as u64) as usize;
        let tag = line / self.num_lines as u64 + 1;
        if self.tags[set] == tag {
            self.tags[set] = 0;
        }
    }
}

/// A miss-path transfer with its fault-recovery bookkeeping.
#[derive(Clone, Copy, Debug)]
struct MissEntry {
    req: MemReq,
    /// Link-drop retries spent so far.
    retries: u32,
    /// Cycle the request entered the subsystem (MSHR-age diagnostics).
    born: Cycle,
    /// This transfer is refetching a line an uncorrectable soft error
    /// invalidated; revalidate the tag when it completes.
    refetch: bool,
}

/// A transfer that exhausted its retry budget; surfaced by the fabric as
/// [`FabricError::LinkFailed`](crate::FabricError).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFailure {
    /// Cycle the final drop was observed.
    pub cycle: Cycle,
    /// Requesting pipeline port.
    pub port: u32,
    /// Request tag.
    pub tag: u64,
    /// Retries spent before escalating.
    pub retries: u32,
}

/// The memory subsystem component.
pub struct MemorySubsystem {
    cfg: MemConfig,
    image: MemImage,
    tags: TagArray,
    /// Incoming requests (pushed by pipelines, staged).
    pub requests: Fifo<MemReq>,
    /// Hit-path pipe.
    hit_pipe: DelayLine<MemReq>,
    /// Miss-path pipe (entered once bandwidth + MSHR admit).
    miss_pipe: DelayLine<MissEntry>,
    /// Write-through pipe (admitted behind the same bandwidth meter but
    /// completing with hit latency; posted writes don't occupy MSHRs).
    write_pipe: DelayLine<MemReq>,
    /// Misses waiting for bandwidth/MSHR admission.
    miss_wait: VecDeque<MissEntry>,
    /// Transfers a link fault dropped, waiting out their deterministic
    /// exponential backoff (`(retry_at, entry)`).
    lost: Vec<(Cycle, MissEntry)>,
    /// First transfer that exhausted `max_retries`.
    link_failed: Option<LinkFailure>,
    /// Seeded fault source; `None` on the fault-free hot path.
    faults: Option<FaultPlan>,
    qpi: BandwidthMeter,
    miss_latency: Cycle,
    stats: MemStats,
    /// Flat word-address base of each region (fixed at load time).
    bases: Vec<u64>,
}

impl MemorySubsystem {
    /// Builds the subsystem around an initial memory image.
    pub fn new(cfg: MemConfig, image: MemImage) -> Self {
        Self::with_faults(cfg, image, &FaultConfig::default())
    }

    /// Builds the subsystem with a fault-injection campaign armed. A
    /// config that injects nothing (the default) costs nothing at tick
    /// time.
    pub fn with_faults(cfg: MemConfig, image: MemImage, faults: &FaultConfig) -> Self {
        let tags = TagArray::new(cfg.cache_kb * 1024, cfg.line_bytes);
        let qpi = BandwidthMeter::from_gbps(cfg.qpi_gbps, cfg.clock_mhz)
            .with_min_burst(2 * cfg.line_bytes as u64);
        let miss_latency = cfg.hit_latency + cycles_from_ns(cfg.clock_mhz, cfg.miss_extra_ns);
        let bases = image.flat_bases();
        MemorySubsystem {
            requests: Fifo::new(256),
            hit_pipe: DelayLine::new(cfg.hit_latency),
            miss_pipe: DelayLine::new(miss_latency),
            write_pipe: DelayLine::new(cfg.hit_latency),
            miss_wait: VecDeque::new(),
            lost: Vec::new(),
            link_failed: None,
            faults: FaultPlan::new(faults),
            tags,
            qpi,
            image,
            miss_latency,
            stats: MemStats::default(),
            bases,
            cfg,
        }
    }

    /// The wrapped image (for seeding checks and final readout).
    pub fn image(&self) -> &MemImage {
        &self.image
    }

    /// Mutable image access (extern IP units execute through this).
    pub fn image_mut(&mut self) -> &mut MemImage {
        &mut self.image
    }

    /// Consumes link bandwidth for an extern core's burst transfer;
    /// returns the bytes actually granted this cycle (up to `want`).
    ///
    /// Extern DMA rides the same QPI link as misses, so it is exposed to
    /// the same faults: a dropped or corrupted chunk is not credited (it
    /// retransmits, burning more of this cycle's bandwidth budget); a
    /// late or single-bit-corrected chunk is counted but still credited.
    pub fn grant_burst(&mut self, want: u64) -> u64 {
        // Consume in line-size chunks to share fairly with misses.
        let chunk = self.cfg.line_bytes as u64;
        let mut granted = 0;
        while granted < want {
            let step = chunk.min(want - granted);
            if !self.qpi.try_consume(step) {
                break;
            }
            self.stats.qpi_bytes += step;
            if let Some(plan) = self.faults.as_mut() {
                match plan.draw_link() {
                    Some(LinkFault::Dropped) => {
                        plan.stats.link_dropped += 1;
                        continue; // chunk lost on the wire
                    }
                    Some(LinkFault::Late(_)) => plan.stats.link_late += 1,
                    None => {}
                }
                match plan.draw_fill() {
                    Some(SoftError::MultiBit) => {
                        plan.stats.soft_refetched += 1;
                        continue; // chunk corrupt; refetch it
                    }
                    Some(SoftError::SingleBit) => plan.stats.soft_corrected += 1,
                    None => {}
                }
            }
            granted += step;
        }
        granted
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Requests currently inside the subsystem (queued, waiting for
    /// admission, backing off after a drop, or traversing a latency
    /// pipe).
    pub fn inflight(&self) -> usize {
        self.requests.len()
            + self.hit_pipe.len()
            + self.miss_pipe.len()
            + self.write_pipe.len()
            + self.miss_wait.len()
            + self.lost.len()
    }

    /// Fault-injection totals accounted by this subsystem (zero when no
    /// campaign is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| p.stats).unwrap_or_default()
    }

    /// The armed fault plan, if any (the fabric draws its lane/bank
    /// trials from the same plan so one seed governs the campaign).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// The transfer that exhausted its retry budget, if any.
    pub fn link_failure(&self) -> Option<LinkFailure> {
        self.link_failed
    }

    /// Ages (cycles since issue) of in-flight MSHR-path transfers,
    /// oldest first — deadlock-diagnostic fodder.
    pub fn mshr_ages(&self, now: Cycle) -> Vec<u64> {
        let mut ages: Vec<u64> = self
            .miss_wait
            .iter()
            .map(|e| now.saturating_sub(e.born))
            .chain(self.lost.iter().map(|(_, e)| now.saturating_sub(e.born)))
            .collect();
        ages.sort_unstable_by(|a, b| b.cmp(a));
        ages
    }

    /// Writes the subsystem's totals into a registry view: the running
    /// `MemStats` and the in-flight count. The per-cycle statistics are
    /// levels (see [`MemMetrics::register`]).
    pub fn publish(&self, ids: &MemMetrics, m: &mut MetricsRegistry) {
        m.set_counter(ids.reads, self.stats.reads);
        m.set_counter(ids.writes, self.stats.writes);
        m.set_counter(ids.hits, self.stats.hits);
        m.set_counter(ids.misses, self.stats.misses);
        m.set_counter(ids.qpi_bytes, self.stats.qpi_bytes);
        m.set_gauge(ids.inflight, self.inflight() as f64);
    }

    /// Why the front of the miss-wait queue is blocked, if anything
    /// waits there: `MshrFull` for a read held by the in-flight-miss
    /// bound, `Bandwidth` for one held by link byte credits. One stall
    /// is counted per cycle this holds at the end of a tick.
    pub fn stall_cause(&self) -> Option<StallCause> {
        let front = self.miss_wait.front()?;
        let is_write = front.req.write.is_some();
        Some(
            if !is_write && self.miss_pipe.len() >= self.cfg.max_inflight_misses {
                StallCause::MshrFull
            } else {
                StallCause::Bandwidth
            },
        )
    }

    /// Is anything in flight?
    pub fn is_idle(&self) -> bool {
        self.requests.is_empty()
            && self.hit_pipe.is_empty()
            && self.miss_pipe.is_empty()
            && self.write_pipe.is_empty()
            && self.miss_wait.is_empty()
            && self.lost.is_empty()
    }

    /// Advances one cycle: admits requests, serves completions into
    /// `responses` as `(port, tag, word)` triples. The caller must route
    /// responses and then call [`MemorySubsystem::commit`].
    ///
    /// Returns whether the subsystem changed any state this cycle (a
    /// re-arm, completion, admission, or acceptance) — the event-wheel
    /// scheduler's quiescence signal. The bandwidth meter's credit
    /// accrual does not count: it is replayed exactly across skipped
    /// cycles by [`MemorySubsystem::fast_forward`].
    pub fn tick(&mut self, now: Cycle, responses: &mut Vec<(u32, u64, u64)>) -> bool {
        let mut active = false;
        self.qpi.tick();
        let line_words = (self.cfg.line_bytes / 8) as u64;
        // 0) Re-arm dropped transfers whose backoff expired (ahead of the
        //    admission queue: they have already waited their turn once).
        let mut i = 0;
        while i < self.lost.len() {
            if self.lost[i].0 <= now {
                let (_, entry) = self.lost.remove(i);
                if let Some(plan) = self.faults.as_mut() {
                    plan.stats.link_retried += 1;
                }
                self.miss_wait.push_front(entry);
                active = true;
            } else {
                i += 1;
            }
        }
        // 1) Completions (functional effect happens here).
        while let Some(req) = self.hit_pipe.pop_ready(now) {
            responses.push(self.complete(req));
            active = true;
        }
        while let Some(mut entry) = self.miss_pipe.pop_ready(now) {
            active = true;
            // The fill just crossed the link: run the modeled ECC check.
            match self.faults.as_mut().and_then(FaultPlan::draw_fill) {
                Some(SoftError::MultiBit) => {
                    // Uncorrectable: invalidate the line and refetch it.
                    self.faults.as_mut().unwrap().stats.soft_refetched += 1;
                    let addr_words = self.bases[entry.req.region.0] + entry.req.offset;
                    self.tags.invalidate(addr_words, line_words);
                    entry.refetch = true;
                    self.miss_wait.push_front(entry);
                    continue;
                }
                Some(SoftError::SingleBit) => {
                    self.faults.as_mut().unwrap().stats.soft_corrected += 1;
                }
                None => {}
            }
            if entry.refetch {
                // The refetched line is valid again.
                let addr_words = self.bases[entry.req.region.0] + entry.req.offset;
                self.tags.access(addr_words, line_words, true);
            }
            responses.push(self.complete(entry.req));
        }
        while let Some(req) = self.write_pipe.pop_ready(now) {
            responses.push(self.complete(req));
            active = true;
        }
        // 2) Admit waiting misses (bandwidth + MSHR bound).
        while let Some(entry) = self.miss_wait.front().copied() {
            let is_write = entry.req.write.is_some();
            if !is_write && self.miss_pipe.len() >= self.cfg.max_inflight_misses {
                break;
            }
            let bytes = if is_write {
                8
            } else {
                self.cfg.line_bytes as u64
            };
            if !self.qpi.try_consume(bytes) {
                break;
            }
            self.stats.qpi_bytes += bytes;
            self.miss_wait.pop_front();
            active = true;
            // The transfer is on the wire: draw its link fate.
            match self.faults.as_mut().and_then(FaultPlan::draw_link) {
                Some(LinkFault::Dropped) => {
                    let plan = self.faults.as_mut().unwrap();
                    plan.stats.link_dropped += 1;
                    if entry.retries >= plan.cfg().max_retries {
                        plan.stats.link_escalated += 1;
                        self.link_failed.get_or_insert(LinkFailure {
                            cycle: now,
                            port: entry.req.port,
                            tag: entry.req.tag,
                            retries: entry.retries,
                        });
                    } else {
                        let retry_at = now + plan.backoff(entry.retries);
                        self.lost.push((
                            retry_at,
                            MissEntry {
                                retries: entry.retries + 1,
                                ..entry
                            },
                        ));
                    }
                }
                Some(LinkFault::Late(extra)) => {
                    self.faults.as_mut().unwrap().stats.link_late += 1;
                    if is_write {
                        self.write_pipe.push_extra(now, extra, entry.req);
                    } else {
                        self.miss_pipe.push_extra(now, extra, entry);
                    }
                }
                None => {
                    if is_write {
                        self.write_pipe.push(now, entry.req);
                    } else {
                        self.miss_pipe.push(now, entry);
                    }
                }
            }
        }
        // 3) Accept new requests.
        for _ in 0..self.cfg.requests_per_cycle {
            // Leave headroom in the wait queue so admission stays bounded.
            if self.miss_wait.len() >= 4 * self.cfg.max_inflight_misses {
                break;
            }
            let Some(req) = self.requests.pop() else { break };
            active = true;
            let addr_words = self.bases[req.region.0] + req.offset;
            let entry = MissEntry {
                req,
                retries: 0,
                born: now,
                refetch: false,
            };
            match req.write {
                None => {
                    self.stats.reads += 1;
                    if self.tags.access(addr_words, line_words, true) {
                        self.stats.hits += 1;
                        self.hit_pipe.push(now, req);
                    } else {
                        self.stats.misses += 1;
                        self.miss_wait.push_back(entry);
                    }
                }
                Some(_) => {
                    self.stats.writes += 1;
                    // Write-through, no-allocate: update the tag state only
                    // on a hit (data would be updated in place).
                    let _hit = self.tags.access(addr_words, line_words, false);
                    // All writes traverse the link; queue behind misses for
                    // bandwidth accounting.
                    self.miss_wait.push_back(entry);
                }
            }
        }
        active
    }

    /// End-of-cycle commit of the request FIFO.
    pub fn commit(&mut self) {
        self.requests.commit();
    }

    /// Earliest future cycle at which this subsystem can next change
    /// state, given that the tick at `now` changed nothing: the front of
    /// each latency pipe, the earliest backoff expiry, and the cycle the
    /// bandwidth meter first covers the blocked admission at the front of
    /// the wait queue. `None` when nothing is pending (idle, or blocked
    /// on conditions only the rest of the fabric can change, like an MSHR
    /// freeing — which the miss-pipe front already covers). The
    /// bandwidth replay looks no further than `horizon`, a wake the
    /// caller already has; a later admission is reported as none.
    ///
    /// May undershoot (waking early only costs a dense cycle); it never
    /// overshoots, so the dense loop and the event wheel admit and
    /// complete every transfer on identical cycles.
    pub fn next_wake(&self, now: Cycle, horizon: Cycle) -> Option<Cycle> {
        let mut wake: Option<Cycle> = None;
        let mut consider = |c: Cycle| match wake {
            Some(w) if w <= c => {}
            _ => wake = Some(c),
        };
        if let Some(c) = self.hit_pipe.next_ready() {
            consider(c);
        }
        if let Some(c) = self.miss_pipe.next_ready() {
            consider(c);
        }
        if let Some(c) = self.write_pipe.next_ready() {
            consider(c);
        }
        if let Some(c) = self.lost.iter().map(|(r, _)| *r).min() {
            consider(c);
        }
        if let Some(entry) = self.miss_wait.front() {
            let is_write = entry.req.write.is_some();
            if is_write || self.miss_pipe.len() < self.cfg.max_inflight_misses {
                // Blocked on bandwidth credit alone: replay the accrual to
                // the exact admission cycle. A front that saturates below
                // its transfer size contributes no wake (the watchdog
                // bounds the wait, same as the dense loop).
                let bytes = if is_write {
                    8
                } else {
                    self.cfg.line_bytes as u64
                };
                if let Some(k) = self.qpi.cycles_until(bytes, horizon.saturating_sub(now)) {
                    consider(now + k.max(1));
                }
            }
            // Else: blocked on an MSHR; the miss-pipe front above is the
            // only event that can free one.
        }
        wake
    }

    /// Replays `n` skipped quiescent cycles: the bandwidth meter accrues
    /// credit exactly as `n` ticks would (see
    /// [`apir_sim::bandwidth::BandwidthMeter::tick_n`]); everything else
    /// is unchanged by construction.
    pub fn fast_forward(&mut self, n: u64) {
        self.qpi.tick_n(n);
    }

    fn complete(&mut self, req: MemReq) -> (u32, u64, u64) {
        let word = match req.write {
            None => self.image.read(req.region, req.offset),
            Some((kind, value)) => {
                let old = self.image.read(req.region, req.offset);
                match kind {
                    WriteKind::Plain => {
                        self.image.write(req.region, req.offset, value);
                        1
                    }
                    WriteKind::Min => {
                        if value < old {
                            self.image.write(req.region, req.offset, value);
                            1
                        } else {
                            0
                        }
                    }
                    WriteKind::Cas(expected) => {
                        if old == expected {
                            self.image.write(req.region, req.offset, value);
                            1
                        } else {
                            0
                        }
                    }
                    WriteKind::Add => {
                        let new = old.wrapping_add(value);
                        self.image.write(req.region, req.offset, new);
                        new
                    }
                }
            }
        };
        (req.port, req.tag, word)
    }

    /// Miss path latency in cycles (for reports).
    pub fn miss_latency(&self) -> Cycle {
        self.miss_latency
    }

    /// Serializes the subsystem's mutable state for a fabric snapshot:
    /// the full memory image, the cache tag array, every in-flight
    /// transfer (request FIFO, latency pipes with absolute ready cycles,
    /// admission queue, backoff list), the link-failure latch, the fault
    /// RNG stream positions, the bandwidth meter, and the stats totals.
    pub(crate) fn snapshot_json(&self) -> Json {
        let miss_json = |e: &MissEntry| {
            Json::obj([
                ("q", snapshot::memreq_json(&e.req)),
                ("r", Json::U64(e.retries as u64)),
                ("b", Json::U64(e.born)),
                ("f", Json::Bool(e.refetch)),
            ])
        };
        let req_pipe = |p: &DelayLine<MemReq>| {
            Json::arr(
                p.iter_entries()
                    .map(|(c, r)| Json::arr([Json::U64(c), snapshot::memreq_json(r)])),
            )
        };
        let regions = Json::arr((0..self.image.region_count()).map(|ri| {
            Json::arr(
                self.image
                    .region(apir_core::RegionId(ri))
                    .iter()
                    .map(|&w| Json::U64(w)),
            )
        }));
        let faults = match &self.faults {
            None => Json::Null,
            Some(plan) => {
                let s = plan.stats;
                Json::obj([
                    (
                        "rng",
                        Json::arr(
                            plan.rng_states()
                                .iter()
                                .map(|st| Json::arr(st.iter().map(|&w| Json::U64(w)))),
                        ),
                    ),
                    (
                        "stats",
                        Json::arr(
                            [
                                s.soft_injected,
                                s.soft_corrected,
                                s.soft_refetched,
                                s.link_dropped,
                                s.link_late,
                                s.link_retried,
                                s.link_escalated,
                                s.lanes_masked,
                                s.lanes_drained,
                                s.banks_masked,
                                s.banks_drained,
                                s.watchdog_escalations,
                                s.watchdog_flushed,
                            ]
                            .map(Json::U64),
                        ),
                    ),
                ])
            }
        };
        let (credit_bits, consumed_total, qpi_cycles) = self.qpi.state();
        Json::obj([
            ("image", regions),
            (
                "tags",
                Json::arr(self.tags.tags.iter().map(|&t| Json::U64(t))),
            ),
            (
                "requests",
                Json::obj([
                    (
                        "v",
                        Json::arr(self.requests.iter().map(snapshot::memreq_json)),
                    ),
                    (
                        "s",
                        Json::arr(self.requests.iter_staged().map(snapshot::memreq_json)),
                    ),
                ]),
            ),
            ("hit_pipe", req_pipe(&self.hit_pipe)),
            (
                "miss_pipe",
                Json::arr(
                    self.miss_pipe
                        .iter_entries()
                        .map(|(c, e)| Json::arr([Json::U64(c), miss_json(e)])),
                ),
            ),
            ("write_pipe", req_pipe(&self.write_pipe)),
            ("miss_wait", Json::arr(self.miss_wait.iter().map(miss_json))),
            (
                "lost",
                Json::arr(
                    self.lost
                        .iter()
                        .map(|(at, e)| Json::arr([Json::U64(*at), miss_json(e)])),
                ),
            ),
            (
                "link_failed",
                self.link_failed.map_or(Json::Null, |lf| {
                    Json::obj([
                        ("c", Json::U64(lf.cycle)),
                        ("p", Json::U64(lf.port as u64)),
                        ("t", Json::U64(lf.tag)),
                        ("r", Json::U64(lf.retries as u64)),
                    ])
                }),
            ),
            ("faults", faults),
            (
                "qpi",
                Json::arr([
                    Json::U64(credit_bits),
                    Json::U64(consumed_total),
                    Json::U64(qpi_cycles),
                ]),
            ),
            (
                "stats",
                Json::arr(
                    [
                        self.stats.reads,
                        self.stats.writes,
                        self.stats.hits,
                        self.stats.misses,
                        self.stats.qpi_bytes,
                    ]
                    .map(Json::U64),
                ),
            ),
        ])
    }

    /// Checks that every in-flight request addresses a word of the image
    /// and answers on one of `ports`, or names the first that does not
    /// by its document path (`/mem/...`).
    fn check_requests(&self, ports: usize) -> Result<(), String> {
        fn of_miss(e: &MissEntry) -> &MemReq {
            &e.req
        }
        let sites: [(&str, &str, Vec<&MemReq>); 7] = [
            ("requests/v", "", self.requests.iter().collect()),
            ("requests/s", "", self.requests.iter_staged().collect()),
            ("hit_pipe", "[1]", self.hit_pipe.iter_entries().map(|(_, r)| r).collect()),
            ("write_pipe", "[1]", self.write_pipe.iter_entries().map(|(_, r)| r).collect()),
            ("miss_pipe", "[1]/q", self.miss_pipe.iter_entries().map(|(_, e)| of_miss(e)).collect()),
            ("miss_wait", "/q", self.miss_wait.iter().map(of_miss).collect()),
            ("lost", "[1]/q", self.lost.iter().map(|(_, e)| of_miss(e)).collect()),
        ];
        let regions = self.image.region_count();
        for (container, tail, reqs) in sites {
            for (i, req) in reqs.into_iter().enumerate() {
                let (r, o, p) = (req.region.0, req.offset, req.port);
                let words = (r < regions).then(|| self.image.region(req.region).len() as u64);
                let problem = match words {
                    None => format!("r: region {r} out of range ({regions} regions)"),
                    Some(w) if o >= w => format!("o: offset {o} outside region {r} ({w} words)"),
                    _ if p as usize >= ports => format!("p: port {p} out of range ({ports} ports)"),
                    _ => continue,
                };
                return Err(format!("snapshot: /mem/{container}[{i}]{tail}/{problem}"));
            }
        }
        Ok(())
    }

    /// Restores state captured by [`MemorySubsystem::snapshot_json`] into
    /// a structurally identical subsystem (same config, same image
    /// layout). Every in-flight request must address a word of the image
    /// and answer on one of the fabric's `ports` response ports; one that
    /// does not is rejected with its document path (`/mem/...`), since
    /// completing it would read out of bounds or deliver nowhere.
    pub(crate) fn restore_json(&mut self, j: &Json, ports: usize) -> Result<(), String> {
        let miss_from = |e: &Json| -> Result<MissEntry, String> {
            Ok(MissEntry {
                req: snapshot::memreq_from(snapshot::field(e, "q")?)?,
                retries: snapshot::u64_field(e, "r")? as u32,
                born: snapshot::u64_field(e, "b")?,
                refetch: snapshot::bool_field(e, "f")?,
            })
        };
        let regions = snapshot::arr_field(j, "image")?;
        if regions.len() != self.image.region_count() {
            return Err(format!(
                "snapshot: image has {} regions, input builds {}",
                regions.len(),
                self.image.region_count()
            ));
        }
        for (ri, rj) in regions.iter().enumerate() {
            let words = snapshot::u64_vec(rj, "image region")?;
            let dst = self.image.region_mut(apir_core::RegionId(ri));
            if words.len() != dst.len() {
                return Err(format!(
                    "snapshot: region {ri} has {} words, input has {}",
                    words.len(),
                    dst.len()
                ));
            }
            dst.copy_from_slice(&words);
        }
        let tags = snapshot::u64_vec(snapshot::field(j, "tags")?, "tags")?;
        if tags.len() != self.tags.tags.len() {
            return Err("snapshot: tag array size mismatch".into());
        }
        self.tags.tags = tags;
        let reqs = snapshot::field(j, "requests")?;
        let decode_reqs = |key: &str| -> Result<Vec<MemReq>, String> {
            snapshot::arr_field(reqs, key)?
                .iter()
                .map(snapshot::memreq_from)
                .collect()
        };
        let (visible, staged) = (decode_reqs("v")?, decode_reqs("s")?);
        let cap = self.requests.capacity();
        if visible.len() + staged.len() > cap {
            return Err(format!(
                "snapshot: /mem/requests holds {} requests, capacity {cap}",
                visible.len() + staged.len()
            ));
        }
        self.requests = Fifo::from_parts(cap, visible, staged);
        let decode_req_pipe = |key: &str| -> Result<Vec<(Cycle, MemReq)>, String> {
            snapshot::arr_field(j, key)?
                .iter()
                .map(|p| {
                    let pair = snapshot::need_arr(p, key)?;
                    let [c, r] = pair else {
                        return Err(format!("snapshot: malformed `{key}` entry"));
                    };
                    Ok((snapshot::need_u64(c, key)?, snapshot::memreq_from(r)?))
                })
                .collect()
        };
        self.hit_pipe = DelayLine::from_parts(self.hit_pipe.latency(), decode_req_pipe("hit_pipe")?);
        self.write_pipe =
            DelayLine::from_parts(self.write_pipe.latency(), decode_req_pipe("write_pipe")?);
        let miss_entries: Vec<(Cycle, MissEntry)> = snapshot::arr_field(j, "miss_pipe")?
            .iter()
            .map(|p| {
                let pair = snapshot::need_arr(p, "miss_pipe")?;
                let [c, e] = pair else {
                    return Err("snapshot: malformed `miss_pipe` entry".to_string());
                };
                Ok((snapshot::need_u64(c, "miss_pipe")?, miss_from(e)?))
            })
            .collect::<Result<_, String>>()?;
        self.miss_pipe = DelayLine::from_parts(self.miss_pipe.latency(), miss_entries);
        self.miss_wait = snapshot::arr_field(j, "miss_wait")?
            .iter()
            .map(miss_from)
            .collect::<Result<_, String>>()?;
        self.lost = snapshot::arr_field(j, "lost")?
            .iter()
            .map(|p| {
                let pair = snapshot::need_arr(p, "lost")?;
                let [at, e] = pair else {
                    return Err("snapshot: malformed `lost` entry".to_string());
                };
                Ok((snapshot::need_u64(at, "lost")?, miss_from(e)?))
            })
            .collect::<Result<_, String>>()?;
        self.check_requests(ports)?;
        let lf = snapshot::field(j, "link_failed")?;
        self.link_failed = match lf {
            Json::Null => None,
            _ => Some(LinkFailure {
                cycle: snapshot::u64_field(lf, "c")?,
                port: snapshot::u64_field(lf, "p")? as u32,
                tag: snapshot::u64_field(lf, "t")?,
                retries: snapshot::u64_field(lf, "r")? as u32,
            }),
        };
        let fj = snapshot::field(j, "faults")?;
        match (&mut self.faults, fj) {
            (None, Json::Null) => {}
            (Some(plan), Json::Obj(_)) => {
                let rng = snapshot::arr_field(fj, "rng")?;
                if rng.len() != 4 {
                    return Err("snapshot: fault plan needs 4 RNG streams".into());
                }
                let mut states = [[0u64; 4]; 4];
                for (dst, sj) in states.iter_mut().zip(rng) {
                    let words = snapshot::u64_vec(sj, "rng state")?;
                    if words.len() != 4 {
                        return Err("snapshot: RNG state needs 4 words".into());
                    }
                    dst.copy_from_slice(&words);
                }
                plan.restore_rng_states(states);
                let stats = snapshot::u64_vec(snapshot::field(fj, "stats")?, "fault stats")?;
                let [si, sc, sr, ld, ll, lr, le, lm, lx, bm, bx, we, wf] = stats.as_slice()
                else {
                    return Err("snapshot: fault stats arity mismatch".into());
                };
                plan.stats = FaultStats {
                    soft_injected: *si,
                    soft_corrected: *sc,
                    soft_refetched: *sr,
                    link_dropped: *ld,
                    link_late: *ll,
                    link_retried: *lr,
                    link_escalated: *le,
                    lanes_masked: *lm,
                    lanes_drained: *lx,
                    banks_masked: *bm,
                    banks_drained: *bx,
                    watchdog_escalations: *we,
                    watchdog_flushed: *wf,
                };
            }
            _ => {
                return Err(
                    "snapshot: fault plan presence disagrees with the config".into(),
                );
            }
        }
        let qpi = snapshot::u64_vec(snapshot::field(j, "qpi")?, "qpi")?;
        let [credit_bits, consumed_total, qpi_cycles] = qpi.as_slice() else {
            return Err("snapshot: qpi state arity mismatch".into());
        };
        self.qpi
            .restore_state(*credit_bits, *consumed_total, *qpi_cycles);
        let stats = snapshot::u64_vec(snapshot::field(j, "stats")?, "mem stats")?;
        let [reads, writes, hits, misses, qpi_bytes] = stats.as_slice() else {
            return Err("snapshot: mem stats arity mismatch".into());
        };
        self.stats = MemStats {
            reads: *reads,
            writes: *writes,
            hits: *hits,
            misses: *misses,
            qpi_bytes: *qpi_bytes,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::RegionId;

    fn subsystem() -> MemorySubsystem {
        let img = MemImage::new(&[("a".into(), 4096)]);
        MemorySubsystem::new(MemConfig::default(), img)
    }

    fn read_req(tag: u64, off: u64) -> MemReq {
        MemReq {
            port: 0,
            tag,
            region: RegionId(0),
            offset: off,
            write: None,
        }
    }

    fn run_until_responses(
        m: &mut MemorySubsystem,
        start: Cycle,
        n: usize,
        max: Cycle,
    ) -> (Vec<(u32, u64, u64)>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while out.len() < n && now < start + max {
            now += 1;
            m.tick(now, &mut out);
            m.commit();
        }
        (out, now)
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut m = subsystem();
        m.requests.push(read_req(1, 0));
        m.commit();
        let (r, t1) = run_until_responses(&mut m, 0, 1, 500);
        assert_eq!(r.len(), 1);
        // Miss: hit latency + 200ns (40 cycles) plus admission.
        assert!(t1 >= 54, "miss completed too fast: {t1}");
        // Same line again: hit.
        m.requests.push(read_req(2, 1));
        m.commit();
        let (r2, t2) = run_until_responses(&mut m, t1, 1, 500);
        assert_eq!(r2.len(), 1);
        assert!(t2 - t1 <= 14 + 3, "hit too slow: {}", t2 - t1);
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.qpi_bytes, 64);
    }

    #[test]
    fn rmw_serializes_by_completion() {
        let mut m = subsystem();
        // Two CAS writes to the same cell, both expecting 0.
        let w = |tag, expected| MemReq {
            port: 0,
            tag,
            region: RegionId(0),
            offset: 7,
            write: Some((WriteKind::Cas(expected), 99)),
        };
        m.requests.push(w(1, 0));
        m.requests.push(w(2, 0));
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 2, 500);
        let won: Vec<u64> = r.iter().map(|x| x.2).collect();
        assert_eq!(won.iter().sum::<u64>(), 1, "exactly one CAS wins: {won:?}");
        assert_eq!(m.image().read(RegionId(0), 7), 99);
    }

    #[test]
    fn store_min_and_add_semantics() {
        let mut m = subsystem();
        m.image_mut().write(RegionId(0), 3, 10);
        let mk = |tag, kind, v| MemReq {
            port: 0,
            tag,
            region: RegionId(0),
            offset: 3,
            write: Some((kind, v)),
        };
        m.requests.push(mk(1, WriteKind::Min, 12)); // loses
        m.requests.push(mk(2, WriteKind::Min, 5)); // wins
        m.requests.push(mk(3, WriteKind::Add, 2)); // 5 + 2 = 7
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 3, 500);
        let by_tag = |t: u64| r.iter().find(|x| x.1 == t).unwrap().2;
        assert_eq!(by_tag(1), 0);
        assert_eq!(by_tag(2), 1);
        assert_eq!(by_tag(3), 7);
        assert_eq!(m.image().read(RegionId(0), 3), 7);
    }

    #[test]
    fn bandwidth_limits_miss_throughput() {
        // 1 GB/s => 5 bytes/cycle => a 64-byte line every ~13 cycles.
        let cfg = MemConfig {
            qpi_gbps: 1.0,
            ..MemConfig::default()
        };
        let img = MemImage::new(&[("a".into(), 1 << 16)]);
        let mut m = MemorySubsystem::new(cfg, img);
        // 32 reads to distinct lines.
        for i in 0..32u64 {
            m.requests.push(read_req(i, i * 8));
        }
        m.commit();
        let (r, t) = run_until_responses(&mut m, 0, 32, 20_000);
        assert_eq!(r.len(), 32);
        // 32 lines * 64B at 5 B/cycle = ~410 cycles minimum.
        assert!(t >= 350, "completed too fast for 1 GB/s: {t}");
        assert_eq!(m.stats().qpi_bytes, 32 * 64);
    }

    fn faulty_subsystem(faults: &FaultConfig) -> MemorySubsystem {
        let img = MemImage::new(&[("a".into(), 4096)]);
        MemorySubsystem::with_faults(MemConfig::default(), img, faults)
    }

    #[test]
    fn dropped_transfer_retries_and_completes() {
        // Seeded 50% drop: every lost admission re-arms after the backoff
        // and the miss still completes with the right data.
        let faults = FaultConfig {
            seed: 3,
            drop_rate: 0.5,
            retry_timeout: 8,
            max_retries: 8,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.image_mut().write(RegionId(0), 0, 42);
        for i in 0..8u64 {
            m.requests.push(read_req(i, i * 64));
        }
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 8, 20_000);
        assert_eq!(r.len(), 8);
        assert_eq!(r.iter().find(|x| x.1 == 0).unwrap().2, 42);
        let f = m.fault_stats();
        assert!(f.link_dropped > 0, "seed 3 must drop something: {f:?}");
        assert_eq!(f.link_retried, f.link_dropped, "every drop re-armed");
        assert!(m.is_idle());
        assert!(m.link_failure().is_none());
    }

    #[test]
    fn certain_drop_exhausts_retries_into_link_failure() {
        let faults = FaultConfig {
            seed: 1,
            drop_rate: 1.0,
            retry_timeout: 2,
            max_retries: 2,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.requests.push(read_req(9, 0));
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 1, 2_000);
        assert!(r.is_empty(), "a dead link must not answer");
        let fail = m.link_failure().expect("retries exhausted");
        assert_eq!(fail.tag, 9);
        assert_eq!(fail.retries, 2);
        assert_eq!(m.fault_stats().link_escalated, 1);
    }

    #[test]
    fn multi_bit_soft_error_refetches_with_correct_data() {
        // Frequent all-multi-bit soft errors (a certain rate would refetch
        // forever): corrupted fills are scrubbed and refetched, yet the
        // response carries the true memory word — modeled ECC never lets
        // corrupted data reach the pipelines. Seed 5 is probed to corrupt
        // the first fill and pass a later one.
        let faults = FaultConfig {
            seed: 5,
            soft_error_rate: 0.7,
            multi_bit_fraction: 1.0,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.image_mut().write(RegionId(0), 1, 77);
        m.requests.push(read_req(4, 1));
        m.commit();
        let (r, t) = run_until_responses(&mut m, 0, 1, 5_000);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, 77);
        let f = m.fault_stats();
        assert!(f.soft_refetched > 0, "{f:?}");
        assert_eq!(f.soft_corrected, 0);
        // The refetch pays at least one extra miss round trip.
        assert!(t >= 2 * 54, "refetch came back too fast: {t}");
    }

    #[test]
    fn single_bit_soft_errors_are_corrected_inline() {
        let faults = FaultConfig {
            seed: 5,
            soft_error_rate: 1.0,
            multi_bit_fraction: 0.0,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.image_mut().write(RegionId(0), 2, 31);
        m.requests.push(read_req(4, 2));
        m.commit();
        let (r, t) = run_until_responses(&mut m, 0, 1, 5_000);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, 31);
        let f = m.fault_stats();
        assert!(f.soft_corrected > 0, "{f:?}");
        assert_eq!(f.soft_refetched, 0);
        // Correction is free: same latency envelope as a clean miss.
        assert!(t < 2 * 54, "inline correction must not refetch: {t}");
    }

    #[test]
    fn mshr_bounds_inflight() {
        let cfg = MemConfig {
            max_inflight_misses: 2,
            qpi_gbps: 700.0, // effectively unlimited bandwidth
            ..MemConfig::default()
        };
        let img = MemImage::new(&[("a".into(), 1 << 16)]);
        let mut m = MemorySubsystem::new(cfg, img);
        for i in 0..8u64 {
            m.requests.push(read_req(i, i * 64));
        }
        m.commit();
        // With only 2 MSHRs and ~54-cycle misses, 8 misses need >= 4 waves.
        let (r, t) = run_until_responses(&mut m, 0, 8, 10_000);
        assert_eq!(r.len(), 8);
        assert!(t >= 4 * 54 - 8, "MSHR limit not enforced: {t}");
        assert!(m.is_idle());
    }
}
