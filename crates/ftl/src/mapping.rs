//! The page-level mapping table and the physical-page resident table.
//!
//! Two structures move in lockstep:
//!
//! * [`MappingTable`] — LPN → PPN, the classic page-level FTL map;
//! * [`ResidentTable`] — PPN → the LPNs currently *live* in that physical
//!   page. A 4 KiB page hosts one LPN; an 8 KiB page hosts up to two. A
//!   physical page stays flash-`Valid` until its last live resident is
//!   remapped, at which point the FTL invalidates it in the block.
//!
//! Keeping residents explicit is what makes the hybrid scheme honest: when
//! one half of an 8 KiB page is overwritten, the other half must survive and
//! be migrated by GC.
//!
//! Both tables sit on the replay hot path (every host chunk touches them
//! several times), so neither uses a plain SipHash `HashMap`:
//!
//! * the mapping table is a **two-level paged direct map** — a hash of
//!   lazily allocated fixed-size chunks. Traces are sparse across the
//!   32 GiB logical space but dense within the regions they touch, so a
//!   lookup is one cheap [`FxHashMap`] probe plus an array index, and a hot
//!   run of consecutive LPNs shares one chunk;
//! * the resident table is a **dense reverse map** indexed by physical
//!   address, as SSDsim keeps each page's LPN in a per-page array: a flat
//!   `[plane × block]` directory of per-block slabs, one 16-byte slot (two
//!   inline LPNs) per page. Pages are programmed in order within a block,
//!   so the write path fills each slab sequentially instead of probing a
//!   hash at random. A slab is allocated the first time its block is
//!   programmed and kept across erases, so the table costs 16 bytes per
//!   directory entry plus `16 × pages_per_block` bytes for every block
//!   ever opened (16 KiB for a 1,024-page Table V block), and a warm
//!   replay, GC included, allocates nothing.

use crate::addr::{Lpn, Ppn};
use core::ops::Deref;
use hps_core::FxHashMap;

/// Log2 of the mapping chunk size: 512 LPN slots (= 2 MiB of logical
/// space) per lazily allocated chunk.
const CHUNK_BITS: u32 = 9;
/// Slots per chunk.
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// Mask selecting the slot index within a chunk.
const CHUNK_MASK: u64 = (CHUNK_LEN as u64) - 1;

/// One lazily allocated run of 512 consecutive LPN slots.
#[derive(Clone, Debug)]
struct Chunk {
    slots: Box<[Option<Ppn>; CHUNK_LEN]>,
    /// Mapped slots in this chunk; the chunk is freed when it hits zero.
    live: u32,
}

impl Chunk {
    fn empty() -> Self {
        Chunk {
            slots: Box::new([None; CHUNK_LEN]),
            live: 0,
        }
    }
}

/// LPN → PPN map: a two-level paged direct map. Sparse traces allocate
/// only the chunks they touch; dense runs within a chunk are one array
/// index apart.
#[derive(Clone, Debug, Default)]
pub struct MappingTable {
    chunks: FxHashMap<u64, Chunk>,
    len: usize,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current physical location of `lpn`, if it has ever been written.
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        self.chunks
            .get(&(lpn.0 >> CHUNK_BITS))
            .and_then(|c| c.slots[(lpn.0 & CHUNK_MASK) as usize])
    }

    /// Points `lpn` at `ppn`, returning the previous location if any.
    #[inline]
    pub fn remap(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let chunk = self
            .chunks
            .entry(lpn.0 >> CHUNK_BITS)
            .or_insert_with(Chunk::empty);
        let prev = chunk.slots[(lpn.0 & CHUNK_MASK) as usize].replace(ppn);
        if prev.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        prev
    }

    /// Removes the mapping for `lpn` (TRIM/discard), returning the old
    /// location if any.
    #[inline]
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let key = lpn.0 >> CHUNK_BITS;
        let chunk = self.chunks.get_mut(&key)?;
        let prev = chunk.slots[(lpn.0 & CHUNK_MASK) as usize].take();
        if prev.is_some() {
            chunk.live -= 1;
            self.len -= 1;
            if chunk.live == 0 {
                self.chunks.remove(&key);
            }
        }
        prev
    }

    /// Number of mapped LPNs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks currently allocated (one per touched 2 MiB logical region).
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// The live residents of one physical page, stored inline: one or two
/// LPNs, never more. Dereferences to a slice of the live entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentList {
    lpns: [Lpn; 2],
    len: u8,
}

impl ResidentList {
    /// An empty list (a page with no residents).
    pub const EMPTY: ResidentList = ResidentList {
        lpns: [Lpn(0), Lpn(0)],
        len: 0,
    };

    /// The live entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Lpn] {
        &self.lpns[..self.len as usize]
    }
}

impl Deref for ResidentList {
    type Target = [Lpn];
    fn deref(&self) -> &[Lpn] {
        self.as_slice()
    }
}

/// Marks an empty resident slot. No real LPN reaches it: an LPN is a byte
/// address divided by 4096.
const VACANT: Lpn = Lpn(u64::MAX);

/// One physical page's residents in the dense map: up to two LPNs packed
/// to the front, [`VACANT`] after the last.
type Slot = [Lpn; 2];

/// Live entries of `slot`.
#[inline]
fn live(slot: &Slot) -> usize {
    usize::from(slot[0] != VACANT) + usize::from(slot[1] != VACANT)
}

/// PPN → live residents, as a dense reverse map indexed by physical
/// address: a flat `[plane × block]` directory of per-block page slabs.
/// At most two LPNs per physical page (the 8 KiB case); exactly one for
/// 4 KiB pages.
///
/// A block's slab is allocated the first time one of its pages is
/// occupied and is kept across erases (an erased block's pages have all
/// been evicted or taken, so its slab is already vacant), so a warm
/// replay, GC included, allocates nothing. Pages are programmed in order
/// within a block, so the write path walks each slab sequentially.
#[derive(Clone, Debug)]
pub struct ResidentTable {
    blocks_per_plane: usize,
    pages_per_block: usize,
    /// `slabs[plane * blocks_per_plane + block]`: that block's residents,
    /// one [`Slot`] per page; `None` until the block is first occupied.
    slabs: Vec<Option<Box<[Slot]>>>,
    occupied: usize,
}

impl ResidentTable {
    /// Creates an empty table for `planes` planes of `blocks_per_plane`
    /// blocks of `pages_per_block` pages. Only the block directory is
    /// allocated here; each block's slab is allocated on first use.
    pub fn new(planes: usize, blocks_per_plane: usize, pages_per_block: usize) -> Self {
        ResidentTable {
            blocks_per_plane,
            pages_per_block,
            slabs: vec![None; planes * blocks_per_plane],
            occupied: 0,
        }
    }

    /// Directory index of `ppn`'s block.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` lies outside the table's geometry.
    #[inline]
    fn slab_index(&self, ppn: Ppn) -> usize {
        assert!(
            ppn.addr.block.0 < self.blocks_per_plane && ppn.addr.page < self.pages_per_block,
            "physical page {ppn} outside the resident table"
        );
        ppn.plane * self.blocks_per_plane + ppn.addr.block.0
    }

    /// `ppn`'s slot, if its block was ever opened.
    #[inline]
    fn slot(&self, ppn: Ppn) -> Option<&Slot> {
        let idx = self.slab_index(ppn);
        self.slabs[idx].as_deref().map(|slab| &slab[ppn.addr.page])
    }

    /// `ppn`'s slot, if its block was ever opened.
    #[inline]
    fn slot_mut(&mut self, ppn: Ppn) -> Option<&mut Slot> {
        let idx = self.slab_index(ppn);
        self.slabs[idx]
            .as_deref_mut()
            .map(|slab| &mut slab[ppn.addr.page])
    }

    /// Registers a freshly programmed physical page holding `lpns`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already occupied (program-without-erase), if
    /// `lpns` is empty, holds more than two entries or holds the reserved
    /// LPN `u64::MAX`, or if `ppn` lies outside the table's geometry.
    pub fn occupy(&mut self, ppn: Ppn, lpns: &[Lpn]) {
        assert!(
            (1..=2).contains(&lpns.len()),
            "a physical page hosts one or two LPNs, got {}",
            lpns.len()
        );
        assert!(!lpns.contains(&VACANT), "LPN {VACANT} is reserved");
        let idx = self.slab_index(ppn);
        let pages = self.pages_per_block;
        let slab = self.slabs[idx].get_or_insert_with(|| open_slab(pages));
        let slot = &mut slab[ppn.addr.page];
        assert!(slot[0] == VACANT, "physical page {ppn} already occupied");
        slot[0] = lpns[0];
        slot[1] = lpns.get(1).copied().unwrap_or(VACANT);
        self.occupied += 1;
    }

    /// Removes `lpn` from `ppn`'s residents. Returns `true` when that was
    /// the last live resident — the caller must then invalidate the page in
    /// its block.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` has no residents or `lpn` is not among them — either
    /// indicates the mapping and resident tables have diverged.
    pub fn evict(&mut self, ppn: Ppn, lpn: Lpn) -> bool {
        let slot = self
            .slot_mut(ppn)
            .filter(|slot| slot[0] != VACANT)
            // lint: allow(no-unwrap) -- infallible by construction; the message documents the invariant
            .expect("evict from unoccupied page");
        let pos = slot[..live(slot)]
            .iter()
            .position(|&l| l == lpn)
            // lint: allow(no-unwrap) -- infallible by construction; the message documents the invariant
            .expect("evicted LPN not resident in page");
        // Swap-remove: the partner (if any) moves to the front.
        if pos == 0 {
            slot[0] = slot[1];
        }
        slot[1] = VACANT;
        let last = slot[0] == VACANT;
        if last {
            self.occupied -= 1;
        }
        last
    }

    /// The live residents of `ppn` (empty slice if none).
    pub fn residents(&self, ppn: Ppn) -> &[Lpn] {
        self.slot(ppn).map_or(&[], |slot| &slot[..live(slot)])
    }

    /// Removes and returns all residents of `ppn` (used when GC migrates
    /// the page's live data elsewhere).
    pub fn take(&mut self, ppn: Ppn) -> ResidentList {
        let Some(slot) = self.slot_mut(ppn) else {
            return ResidentList::EMPTY;
        };
        let len = live(slot);
        let mut taken = ResidentList::EMPTY;
        taken.lpns[..len].copy_from_slice(&slot[..len]);
        taken.len = len as u8;
        *slot = [VACANT; 2];
        if len > 0 {
            self.occupied -= 1;
        }
        taken
    }

    /// Number of occupied physical pages.
    pub fn occupied_pages(&self) -> usize {
        self.occupied
    }
}

/// A block's slab, all pages vacant. Outlined: it runs once per block
/// over a table's lifetime.
#[cold]
fn open_slab(pages_per_block: usize) -> Box<[Slot]> {
    vec![[VACANT; 2]; pages_per_block].into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_nand::{BlockId, PageAddr};

    fn ppn(plane: usize, block: usize, page: usize) -> Ppn {
        Ppn {
            plane,
            addr: PageAddr {
                block: BlockId(block),
                page,
            },
        }
    }

    #[test]
    fn mapping_remap_returns_old() {
        let mut m = MappingTable::new();
        assert!(m.lookup(Lpn(5)).is_none());
        assert_eq!(m.remap(Lpn(5), ppn(0, 0, 0)), None);
        assert_eq!(m.remap(Lpn(5), ppn(0, 0, 1)), Some(ppn(0, 0, 0)));
        assert_eq!(m.lookup(Lpn(5)), Some(ppn(0, 0, 1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unmap_removes() {
        let mut m = MappingTable::new();
        m.remap(Lpn(1), ppn(0, 0, 0));
        assert_eq!(m.unmap(Lpn(1)), Some(ppn(0, 0, 0)));
        assert_eq!(m.unmap(Lpn(1)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn chunks_allocate_lazily_and_free_when_empty() {
        let mut m = MappingTable::new();
        assert_eq!(m.allocated_chunks(), 0);
        // Two LPNs in the same 512-slot chunk, one far away.
        m.remap(Lpn(3), ppn(0, 0, 0));
        m.remap(Lpn(510), ppn(0, 0, 1));
        m.remap(Lpn(1 << 30), ppn(0, 0, 2));
        assert_eq!(m.allocated_chunks(), 2);
        assert_eq!(m.len(), 3);
        m.unmap(Lpn(1 << 30));
        assert_eq!(m.allocated_chunks(), 1, "empty chunk is freed");
        m.unmap(Lpn(3));
        m.unmap(Lpn(510));
        assert_eq!(m.allocated_chunks(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn chunk_boundaries_do_not_alias() {
        let mut m = MappingTable::new();
        // LPNs 511 and 512 straddle a chunk boundary; 0 and 512 share a
        // slot index in different chunks.
        m.remap(Lpn(511), ppn(0, 1, 0));
        m.remap(Lpn(512), ppn(0, 2, 0));
        m.remap(Lpn(0), ppn(0, 3, 0));
        assert_eq!(m.lookup(Lpn(511)), Some(ppn(0, 1, 0)));
        assert_eq!(m.lookup(Lpn(512)), Some(ppn(0, 2, 0)));
        assert_eq!(m.lookup(Lpn(0)), Some(ppn(0, 3, 0)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn shared_page_lives_until_both_evicted() {
        let mut r = ResidentTable::new(2, 4, 8);
        let p = ppn(1, 2, 3);
        r.occupy(p, &[Lpn(10), Lpn(11)]);
        assert_eq!(r.residents(p), &[Lpn(10), Lpn(11)]);
        assert!(!r.evict(p, Lpn(10)), "partner still live");
        assert!(r.evict(p, Lpn(11)), "last resident evicted");
        assert_eq!(r.occupied_pages(), 0);
    }

    #[test]
    fn single_resident_page() {
        let mut r = ResidentTable::new(2, 4, 8);
        let p = ppn(0, 0, 0);
        r.occupy(p, &[Lpn(1)]);
        assert!(r.evict(p, Lpn(1)));
    }

    #[test]
    fn take_drains_residents() {
        let mut r = ResidentTable::new(2, 4, 8);
        let p = ppn(0, 1, 0);
        r.occupy(p, &[Lpn(7), Lpn(8)]);
        assert_eq!(&*r.take(p), &[Lpn(7), Lpn(8)][..]);
        assert_eq!(r.residents(p), &[]);
        assert!(r.take(p).is_empty());
    }

    #[test]
    fn taken_page_can_be_reoccupied() {
        // GC takes a victim's residents, the block is erased, and the same
        // physical page is programmed again.
        let mut r = ResidentTable::new(2, 4, 8);
        let p = ppn(1, 3, 7);
        r.occupy(p, &[Lpn(1), Lpn(2)]);
        assert_eq!(&*r.take(p), &[Lpn(1), Lpn(2)][..]);
        assert_eq!(r.occupied_pages(), 0);
        r.occupy(p, &[Lpn(9)]);
        assert_eq!(r.residents(p), &[Lpn(9)]);
        assert_eq!(r.occupied_pages(), 1);
    }

    #[test]
    fn unopened_block_reads_empty() {
        let mut r = ResidentTable::new(2, 4, 8);
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        assert_eq!(r.residents(ppn(1, 2, 5)), &[]);
        assert_eq!(r.take(ppn(1, 2, 5)), ResidentList::EMPTY);
        assert_eq!(r.occupied_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "unoccupied page")]
    fn evict_from_unopened_block_panics() {
        let mut r = ResidentTable::new(2, 4, 8);
        r.evict(ppn(0, 1, 0), Lpn(1));
    }

    #[test]
    #[should_panic(expected = "unoccupied page")]
    fn evict_from_vacant_page_panics() {
        let mut r = ResidentTable::new(2, 4, 8);
        r.occupy(ppn(0, 1, 0), &[Lpn(1)]);
        r.evict(ppn(0, 1, 1), Lpn(1));
    }

    #[test]
    #[should_panic(expected = "outside the resident table")]
    fn block_past_the_plane_panics() {
        // Block 4 of a 4-block plane would alias plane 1's block 0.
        let mut r = ResidentTable::new(2, 4, 8);
        r.occupy(ppn(0, 4, 0), &[Lpn(1)]);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupy_panics() {
        let mut r = ResidentTable::new(2, 4, 8);
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        r.occupy(ppn(0, 0, 0), &[Lpn(2)]);
    }

    #[test]
    #[should_panic(expected = "one or two LPNs")]
    fn too_many_residents_panics() {
        let mut r = ResidentTable::new(2, 4, 8);
        r.occupy(ppn(0, 0, 0), &[Lpn(1), Lpn(2), Lpn(3)]);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evict_wrong_lpn_panics() {
        let mut r = ResidentTable::new(2, 4, 8);
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        r.evict(ppn(0, 0, 0), Lpn(2));
    }
}
