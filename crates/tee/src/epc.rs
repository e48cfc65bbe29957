//! Enclave Page Cache (EPC) accounting.
//!
//! SGXv1 exposes ~94 MiB of protected memory; when an enclave's working set
//! exceeds it, the kernel evicts pages (EWB) and reloads them on fault
//! (ELDU), re-encrypting each 4 KiB page on the way — the single most
//! expensive effect the paper measures (challenge ❷). This module models
//! that behaviour at *region* granularity: the enclave allocates named
//! regions (model weights, activations, runtime image), and each access
//! "touches" a byte range of a region. The manager maintains a global LRU
//! over regions, charges page-swap time on faults, and keeps the resident
//! total within the budget.
//!
//! Sequential re-scans of a working set larger than the EPC thrash under
//! LRU (every access faults), which is exactly the cliff TensorFlow hits
//! with the 163 MiB Inception-v4 model and during training.
//!
//! # Examples
//!
//! ```
//! use securetf_tee::epc::EpcManager;
//! use securetf_tee::{CostModel, SimClock};
//!
//! let clock = SimClock::new();
//! let mut epc = EpcManager::new(CostModel::default(), clock.clone(), true);
//! let weights = epc.alloc("weights", 8 * 1024 * 1024);
//! epc.touch(weights, 0, 8 * 1024 * 1024).unwrap();
//! assert!(epc.stats().faults > 0);
//! assert!(clock.now_ns() > 0);
//! ```

use crate::clock::{CostModel, SimClock};
use crate::TeeError;
use securetf_telemetry::{CostCategory, Counter, Gauge, Telemetry};
use std::collections::HashMap;

/// Size of one EPC page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of an allocated enclave memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(u64);

/// Counters describing EPC behaviour so far.
///
/// Since the telemetry subsystem landed this is a *thin view*: the live
/// state is a set of registry metrics (`EpcMetrics`) and this struct is
/// a point-in-time copy built on [`EpcManager::stats`], kept for API
/// compatibility with the benches and tests that predate the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpcStats {
    /// Pages faulted in (each charged a page swap).
    pub faults: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Currently resident pages.
    pub resident_pages: u64,
    /// High-water mark of resident pages.
    pub peak_resident_pages: u64,
    /// Total pages allocated across live regions.
    pub allocated_pages: u64,
}

/// The registry-backed metric handles behind [`EpcStats`]. Always
/// functional (the EPC must keep accurate counts even with telemetry
/// disabled — tests and the paging model itself read them); when a
/// [`Telemetry`] handle is enabled they are additionally *registered*
/// under a scope so they appear in snapshots and the metrics digest.
#[derive(Debug, Clone)]
struct EpcMetrics {
    faults: Counter,
    evictions: Counter,
    resident_pages: Gauge,
    allocated_pages: Gauge,
}

impl EpcMetrics {
    fn new() -> Self {
        EpcMetrics {
            faults: Counter::new(),
            evictions: Counter::new(),
            resident_pages: Gauge::new(),
            allocated_pages: Gauge::new(),
        }
    }

    fn register(&self, telemetry: &Telemetry, scope: &str) {
        telemetry.register_counter(&format!("{scope}.epc.faults"), &self.faults);
        telemetry.register_counter(&format!("{scope}.epc.evictions"), &self.evictions);
        telemetry.register_gauge(&format!("{scope}.epc.resident_pages"), &self.resident_pages);
        telemetry.register_gauge(
            &format!("{scope}.epc.allocated_pages"),
            &self.allocated_pages,
        );
    }

    fn stats(&self) -> EpcStats {
        EpcStats {
            faults: self.faults.get(),
            evictions: self.evictions.get(),
            resident_pages: self.resident_pages.get() as u64,
            peak_resident_pages: self.resident_pages.peak() as u64,
            allocated_pages: self.allocated_pages.get() as u64,
        }
    }
}

#[derive(Debug)]
struct Region {
    name: &'static str,
    pages: u64,
    resident: u64,
    /// LRU timestamp (monotone counter, not virtual time).
    last_use: u64,
    /// Pinned regions (the runtime image) are never evicted.
    pinned: bool,
}

/// Tracks enclave memory regions against the EPC budget and charges
/// paging costs to the virtual clock.
#[derive(Debug)]
pub struct EpcManager {
    model: CostModel,
    clock: SimClock,
    /// Whether the EPC limit applies (HW mode) or memory is unlimited
    /// (SIM / native).
    limited: bool,
    regions: HashMap<RegionId, Region>,
    next_id: u64,
    lru_tick: u64,
    metrics: EpcMetrics,
    telemetry: Telemetry,
}

impl EpcManager {
    /// Creates a manager. `limited` selects whether the EPC budget is
    /// enforced (the paper's HW mode) or not (SIM mode).
    pub fn new(model: CostModel, clock: SimClock, limited: bool) -> Self {
        EpcManager {
            model,
            clock,
            limited,
            regions: HashMap::new(),
            next_id: 1,
            lru_tick: 0,
            metrics: EpcMetrics::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Registers this manager's metrics with `telemetry` under `scope`
    /// (e.g. `tee.worker#0`) and starts attributing paging time to the
    /// [`CostCategory::Paging`] span category. Counts are kept regardless;
    /// attachment only makes them visible to snapshots and the digest.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, scope: &str) {
        self.metrics.register(telemetry, scope);
        self.telemetry = telemetry.clone();
    }

    /// Allocates a region of `bytes` bytes. Nothing is resident yet.
    pub fn alloc(&mut self, name: &'static str, bytes: u64) -> RegionId {
        let id = RegionId(self.next_id);
        self.next_id += 1;
        let pages = bytes.div_ceil(PAGE_SIZE as u64);
        self.regions.insert(
            id,
            Region {
                name,
                pages,
                resident: 0,
                last_use: 0,
                pinned: false,
            },
        );
        self.metrics.allocated_pages.add(pages as i64);
        id
    }

    /// Allocates a pinned region (never evicted — the enclave runtime
    /// image and thread stacks behave this way in SGX).
    pub fn alloc_pinned(&mut self, name: &'static str, bytes: u64) -> RegionId {
        let id = self.alloc(name, bytes);
        self.regions.get_mut(&id).expect("just inserted").pinned = true;
        id
    }

    /// Frees a region, releasing its resident pages.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn free(&mut self, id: RegionId) -> Result<(), TeeError> {
        let region = self.regions.remove(&id).ok_or(TeeError::BadRegion(id))?;
        self.metrics.resident_pages.sub(region.resident as i64);
        self.metrics.allocated_pages.sub(region.pages as i64);
        Ok(())
    }

    /// Returns the region's total size in pages.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn region_pages(&self, id: RegionId) -> Result<u64, TeeError> {
        self.regions
            .get(&id)
            .map(|r| r.pages)
            .ok_or(TeeError::BadRegion(id))
    }

    /// Touches `len` bytes of `region` starting at `offset`: faults in any
    /// non-resident pages (charging page-swap time), evicting LRU regions
    /// if the budget requires it.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn touch(&mut self, id: RegionId, offset: u64, len: u64) -> Result<(), TeeError> {
        let region = self.regions.get(&id).ok_or(TeeError::BadRegion(id))?;
        if len == 0 {
            return Ok(());
        }
        let first_page = offset / PAGE_SIZE as u64;
        let last_page = (offset + len - 1) / PAGE_SIZE as u64;
        let touched = (last_page - first_page + 1).min(region.pages);

        self.lru_tick += 1;
        let tick = self.lru_tick;

        if !self.limited {
            // SIM mode: pages become resident for accounting, no charge.
            let region = self.regions.get_mut(&id).expect("checked above");
            let newly = touched.saturating_sub(region.resident);
            region.resident += newly;
            region.last_use = tick;
            self.metrics.resident_pages.add(newly as i64);
            return Ok(());
        }

        let budget = self.model.epc_pages();
        let pinned_total: u64 = self
            .regions
            .values()
            .filter(|r| r.pinned && r.resident > 0)
            .map(|r| r.resident)
            .sum();
        let region = self.regions.get(&id).expect("checked above");
        let avail_for_region = budget.saturating_sub(if region.pinned {
            pinned_total - region.resident
        } else {
            pinned_total
        });

        let faults;
        let target_resident;
        if touched <= avail_for_region {
            // Fits (once others are evicted): fault in the missing part.
            let region = self.regions.get_mut(&id).expect("checked above");
            faults = touched.saturating_sub(region.resident);
            target_resident = region.resident.max(touched);
        } else {
            // Working set exceeds what the EPC can hold: sequential LRU
            // thrash — every touched page faults and at most
            // `avail_for_region` remain resident afterwards.
            faults = touched;
            target_resident = avail_for_region;
        }

        // Make room: evict LRU victims until the new residency fits.
        let region = self.regions.get_mut(&id).expect("checked above");
        let old_resident = region.resident;
        region.last_use = tick;
        if target_resident < old_resident {
            // The pass displaced part of our own working set.
            let shrink = old_resident - target_resident;
            region.resident = target_resident;
            self.metrics.resident_pages.sub(shrink as i64);
            self.metrics.evictions.add(shrink);
        } else {
            let growth = target_resident - old_resident;
            // Evict LRU victims *before* the faulted pages land, so the
            // resident gauge (whose high-water mark backs
            // `peak_resident_pages`) never exceeds the physical EPC.
            let mut need_evict =
                (self.metrics.resident_pages.get() as u64 + growth).saturating_sub(budget);
            if need_evict > 0 {
                let mut victims: Vec<(u64, RegionId)> = self
                    .regions
                    .iter()
                    .filter(|(vid, r)| **vid != id && !r.pinned && r.resident > 0)
                    .map(|(vid, r)| (r.last_use, *vid))
                    .collect();
                victims.sort_unstable();
                for (_, vid) in victims {
                    if need_evict == 0 {
                        break;
                    }
                    let victim = self.regions.get_mut(&vid).expect("listed above");
                    let take = victim.resident.min(need_evict);
                    victim.resident -= take;
                    self.metrics.resident_pages.sub(take as i64);
                    self.metrics.evictions.add(take);
                    need_evict -= take;
                }
            }
            // Any remainder victims could not absorb displaces this
            // region's own new pages (thrash): they fault in and are
            // immediately written back, never settling as resident.
            let region = self.regions.get_mut(&id).expect("checked above");
            region.resident = target_resident - need_evict;
            self.metrics
                .resident_pages
                .add((growth - need_evict) as i64);
            if need_evict > 0 {
                self.metrics.evictions.add(need_evict);
            }
        }

        // Self-thrash: if the working set alone exceeded its budget, the
        // extra faulted pages displaced each other within this pass.
        if touched > avail_for_region {
            let net_growth = target_resident.saturating_sub(old_resident);
            self.metrics
                .evictions
                .add(touched - net_growth.min(touched));
        }

        self.metrics.faults.add(faults);
        let paging_ns = faults * self.model.page_swap_ns();
        if paging_ns > 0 {
            self.clock
                .spend(&self.telemetry, CostCategory::Paging, paging_ns);
        }
        Ok(())
    }

    /// Convenience: touch an entire region.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn touch_all(&mut self, id: RegionId) -> Result<(), TeeError> {
        let pages = self.region_pages(id)?;
        self.touch(id, 0, pages * PAGE_SIZE as u64)
    }

    /// Returns current statistics (a point-in-time view of the registry
    /// metrics backing this manager).
    pub fn stats(&self) -> EpcStats {
        self.metrics.stats()
    }

    /// Returns the names and sizes (in pages) of live regions, for
    /// diagnostics.
    pub fn regions(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.regions.values().map(|r| (r.name, r.pages)).collect();
        v.sort_unstable();
        v
    }

    /// Whether the EPC budget is enforced.
    pub fn is_limited(&self) -> bool {
        self.limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(limited: bool) -> (EpcManager, SimClock) {
        let clock = SimClock::new();
        let model = CostModel {
            epc_bytes: 64 * PAGE_SIZE as u64, // tiny EPC for tests
            ..Default::default()
        };
        (EpcManager::new(model, clock.clone(), limited), clock)
    }

    #[test]
    fn first_touch_faults_every_page() {
        let (mut epc, clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        assert_eq!(epc.stats().faults, 10);
        assert_eq!(epc.stats().resident_pages, 10);
        assert_eq!(clock.now_ns(), 10 * CostModel::default().page_swap_ns());
    }

    #[test]
    fn warm_touch_is_free() {
        let (mut epc, clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        let t = clock.now_ns();
        epc.touch_all(r).unwrap();
        assert_eq!(clock.now_ns(), t, "second touch should not fault");
        assert_eq!(epc.stats().faults, 10);
    }

    #[test]
    fn partial_touch_counts_spanned_pages() {
        let (mut epc, _clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        // 100 bytes starting near a page boundary spans 2 pages.
        epc.touch(r, PAGE_SIZE as u64 - 50, 100).unwrap();
        assert_eq!(epc.stats().faults, 2);
    }

    #[test]
    fn oversized_region_thrashes_on_every_pass() {
        let (mut epc, _clock) = mgr(true);
        // 100 pages in a 64-page EPC.
        let r = epc.alloc("big", 100 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        assert_eq!(epc.stats().faults, 100);
        epc.touch_all(r).unwrap();
        // LRU thrash: all 100 fault again.
        assert_eq!(epc.stats().faults, 200);
        assert!(epc.stats().resident_pages <= 64);
    }

    #[test]
    fn unlimited_mode_never_faults_twice_and_charges_nothing() {
        let (mut epc, clock) = mgr(false);
        let r = epc.alloc("big", 1000 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        epc.touch_all(r).unwrap();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(epc.stats().faults, 0);
        assert_eq!(epc.stats().resident_pages, 1000);
    }

    #[test]
    fn lru_evicts_oldest_region() {
        let (mut epc, _clock) = mgr(true);
        let a = epc.alloc("a", 40 * PAGE_SIZE as u64);
        let b = epc.alloc("b", 40 * PAGE_SIZE as u64);
        epc.touch_all(a).unwrap();
        epc.touch_all(b).unwrap(); // evicts 16 pages of a
        assert_eq!(epc.stats().evictions, 16);
        assert!(epc.stats().resident_pages <= 64);
        // Touching a again re-faults the evicted pages.
        let faults_before = epc.stats().faults;
        epc.touch_all(a).unwrap();
        assert_eq!(epc.stats().faults - faults_before, 16);
    }

    #[test]
    fn pinned_region_survives_pressure() {
        let (mut epc, _clock) = mgr(true);
        let pin = epc.alloc_pinned("runtime", 20 * PAGE_SIZE as u64);
        epc.touch_all(pin).unwrap();
        let big = epc.alloc("big", 60 * PAGE_SIZE as u64);
        epc.touch_all(big).unwrap();
        epc.touch_all(big).unwrap();
        // Pinned pages still resident: touching pin is free.
        let faults_before = epc.stats().faults;
        epc.touch_all(pin).unwrap();
        assert_eq!(epc.stats().faults, faults_before);
    }

    #[test]
    fn resident_never_exceeds_budget() {
        let (mut epc, _clock) = mgr(true);
        let mut regions = Vec::new();
        for i in 0..10 {
            let r = epc.alloc("r", ((i + 3) * 7 * PAGE_SIZE) as u64);
            regions.push(r);
        }
        for _ in 0..3 {
            for &r in &regions {
                epc.touch_all(r).unwrap();
                assert!(epc.stats().resident_pages <= 64);
            }
        }
    }

    #[test]
    fn free_releases_pages() {
        let (mut epc, _clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        epc.free(r).unwrap();
        assert_eq!(epc.stats().resident_pages, 0);
        assert_eq!(epc.stats().allocated_pages, 0);
        assert_eq!(epc.free(r), Err(TeeError::BadRegion(r)));
    }

    #[test]
    fn touch_unknown_region_errors() {
        let (mut epc, _clock) = mgr(true);
        let r = epc.alloc("w", PAGE_SIZE as u64);
        epc.free(r).unwrap();
        assert!(matches!(epc.touch_all(r), Err(TeeError::BadRegion(_))));
    }

    #[test]
    fn zero_length_touch_is_noop() {
        let (mut epc, clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        epc.touch(r, 0, 0).unwrap();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(epc.stats().faults, 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let (mut epc, _clock) = mgr(true);
        let a = epc.alloc("a", 30 * PAGE_SIZE as u64);
        epc.touch_all(a).unwrap();
        epc.free(a).unwrap();
        assert_eq!(epc.stats().resident_pages, 0);
        assert_eq!(epc.stats().peak_resident_pages, 30);
    }
}
