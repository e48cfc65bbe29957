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
//! let telemetry = clock.telemetry();
//! let mut epc = EpcManager::new(CostModel::default(), clock.clone(), true, &telemetry, "app");
//! let weights = epc.alloc("weights", 8 * 1024 * 1024);
//! epc.touch(weights, 0, 8 * 1024 * 1024).unwrap();
//! assert_eq!(telemetry.counter("app.epc.faults").get(), 2048);
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

/// The registry handles the manager counts into, resolved once under
/// its scope: `{scope}.epc.faults`, `.evictions`, `.resident_pages` and
/// `.allocated_pages`.
#[derive(Debug)]
struct EpcMetrics {
    faults: Counter,
    evictions: Counter,
    resident_pages: Gauge,
    allocated_pages: Gauge,
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
    /// Resident pages across all regions: the paging model's own state,
    /// which eviction decisions read. The `resident_pages` gauge only
    /// reports it.
    resident_pages: u64,
    metrics: EpcMetrics,
    telemetry: Telemetry,
}

impl EpcManager {
    /// Creates a manager. `limited` selects whether the EPC budget is
    /// enforced (the paper's HW mode) or not (SIM mode). Its counts go to
    /// `telemetry` under `scope` (e.g. `tee.worker#0.epc.faults`), and its
    /// paging time to the [`CostCategory::Paging`] span category.
    pub fn new(
        model: CostModel,
        clock: SimClock,
        limited: bool,
        telemetry: &Telemetry,
        scope: &str,
    ) -> Self {
        EpcManager {
            model,
            clock,
            limited,
            regions: HashMap::new(),
            next_id: 1,
            lru_tick: 0,
            resident_pages: 0,
            metrics: EpcMetrics {
                faults: telemetry.counter(&format!("{scope}.epc.faults")),
                evictions: telemetry.counter(&format!("{scope}.epc.evictions")),
                resident_pages: telemetry.gauge(&format!("{scope}.epc.resident_pages")),
                allocated_pages: telemetry.gauge(&format!("{scope}.epc.allocated_pages")),
            },
            telemetry: telemetry.clone(),
        }
    }

    /// Sets the resident-page total and reports it.
    fn set_resident(&mut self, pages: u64) {
        self.resident_pages = pages;
        self.metrics.resident_pages.set(pages as i64);
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
        self.set_resident(self.resident_pages - region.resident);
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
            self.set_resident(self.resident_pages + newly);
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
            self.set_resident(self.resident_pages - shrink);
            self.metrics.evictions.add(shrink);
        } else {
            let growth = target_resident - old_resident;
            // Evict LRU victims *before* the faulted pages land, so the
            // resident total (and the gauge's high-water mark) never
            // exceeds the physical EPC.
            let mut need_evict = (self.resident_pages + growth).saturating_sub(budget);
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
                    self.set_resident(self.resident_pages - take);
                    self.metrics.evictions.add(take);
                    need_evict -= take;
                }
            }
            // Any remainder victims could not absorb displaces this
            // region's own new pages (thrash): they fault in and are
            // immediately written back, never settling as resident.
            let region = self.regions.get_mut(&id).expect("checked above");
            region.resident = target_resident - need_evict;
            self.set_resident(self.resident_pages + growth - need_evict);
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
    use crate::tests::{count, gauge};

    /// A manager on a tiny (64-page) EPC, counting into an enabled
    /// registry under the scope `t`.
    fn mgr(limited: bool) -> (EpcManager, SimClock) {
        let clock = SimClock::new();
        (mgr_on(limited, &clock, &clock.telemetry()), clock)
    }

    fn mgr_on(limited: bool, clock: &SimClock, telemetry: &Telemetry) -> EpcManager {
        let model = CostModel {
            epc_bytes: 64 * PAGE_SIZE as u64, // tiny EPC for tests
            ..Default::default()
        };
        EpcManager::new(model, clock.clone(), limited, telemetry, "t")
    }

    fn faults(epc: &EpcManager) -> u64 {
        count(&epc.telemetry, "t.epc.faults")
    }

    fn evictions(epc: &EpcManager) -> u64 {
        count(&epc.telemetry, "t.epc.evictions")
    }

    /// The resident-pages gauge: `(value, peak)`.
    fn resident(epc: &EpcManager) -> (i64, i64) {
        gauge(&epc.telemetry, "t.epc.resident_pages")
    }

    #[test]
    fn first_touch_faults_every_page() {
        let (mut epc, clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        assert_eq!(faults(&epc), 10);
        assert_eq!(resident(&epc).0, 10);
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
        assert_eq!(faults(&epc), 10);
    }

    #[test]
    fn partial_touch_counts_spanned_pages() {
        let (mut epc, _clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        // 100 bytes starting near a page boundary spans 2 pages.
        epc.touch(r, PAGE_SIZE as u64 - 50, 100).unwrap();
        assert_eq!(faults(&epc), 2);
    }

    #[test]
    fn oversized_region_thrashes_on_every_pass() {
        let (mut epc, _clock) = mgr(true);
        // 100 pages in a 64-page EPC.
        let r = epc.alloc("big", 100 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        assert_eq!(faults(&epc), 100);
        epc.touch_all(r).unwrap();
        // LRU thrash: all 100 fault again.
        assert_eq!(faults(&epc), 200);
        assert!(resident(&epc).0 <= 64);
    }

    #[test]
    fn unlimited_mode_never_faults_twice_and_charges_nothing() {
        let (mut epc, clock) = mgr(false);
        let r = epc.alloc("big", 1000 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        epc.touch_all(r).unwrap();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(faults(&epc), 0);
        assert_eq!(resident(&epc).0, 1000);
    }

    #[test]
    fn lru_evicts_oldest_region() {
        let (mut epc, _clock) = mgr(true);
        let a = epc.alloc("a", 40 * PAGE_SIZE as u64);
        let b = epc.alloc("b", 40 * PAGE_SIZE as u64);
        epc.touch_all(a).unwrap();
        epc.touch_all(b).unwrap(); // evicts 16 pages of a
        assert_eq!(evictions(&epc), 16);
        assert!(resident(&epc).0 <= 64);
        // Touching a again re-faults the evicted pages.
        let faults_before = faults(&epc);
        epc.touch_all(a).unwrap();
        assert_eq!(faults(&epc) - faults_before, 16);
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
        let faults_before = faults(&epc);
        epc.touch_all(pin).unwrap();
        assert_eq!(faults(&epc), faults_before);
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
                assert!(resident(&epc).0 <= 64);
            }
        }
    }

    #[test]
    fn free_releases_pages() {
        let (mut epc, _clock) = mgr(true);
        let r = epc.alloc("w", 10 * PAGE_SIZE as u64);
        epc.touch_all(r).unwrap();
        epc.free(r).unwrap();
        assert_eq!(resident(&epc).0, 0);
        assert_eq!(gauge(&epc.telemetry, "t.epc.allocated_pages").0, 0);
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
        assert_eq!(faults(&epc), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let (mut epc, _clock) = mgr(true);
        let a = epc.alloc("a", 30 * PAGE_SIZE as u64);
        epc.touch_all(a).unwrap();
        epc.free(a).unwrap();
        assert_eq!(resident(&epc).0, 0);
        assert_eq!(resident(&epc).1, 30);
    }

    #[test]
    fn paging_is_the_same_with_telemetry_on_and_off() {
        // Eviction reads the resident total, which must be the model's
        // own state: a disabled registry drops every gauge update.
        let (on_clock, off_clock) = (SimClock::new(), SimClock::new());
        let mut on = mgr_on(true, &on_clock, &on_clock.telemetry());
        let mut off = mgr_on(true, &off_clock, &Telemetry::disabled());
        let sizes = [40u64, 30, 100, 10, 25];
        let regions: Vec<_> = sizes
            .iter()
            .map(|&pages| {
                let a = on.alloc("r", pages * PAGE_SIZE as u64);
                let b = off.alloc("r", pages * PAGE_SIZE as u64);
                (a, b)
            })
            .collect();
        for (step, i) in [0, 1, 0, 2, 3, 1, 4, 2, 0, 3, 4, 1].into_iter().enumerate() {
            let (a, b) = regions[i];
            on.touch_all(a).unwrap();
            off.touch_all(b).unwrap();
            assert_eq!(on_clock.now_ns(), off_clock.now_ns(), "step {step}");
            assert_eq!(on.resident_pages, off.resident_pages, "step {step}");
        }
        // Every fault is one page swap, and (nothing freed) every page
        // faulted in is resident or was evicted.
        let swaps = off_clock.now_ns() / CostModel::default().page_swap_ns();
        assert_eq!(faults(&on), swaps);
        assert_eq!(evictions(&on), swaps - off.resident_pages);
        assert!(evictions(&on) > 0, "the sequence must thrash");
        assert_eq!(resident(&on).0 as u64, off.resident_pages);
    }
}
