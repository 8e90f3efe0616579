//! Paged copy-on-write little-endian byte-addressable memory.
//!
//! Memory is a flat 32-bit address space backed by 4 KiB pages behind
//! `Arc`s. Unwritten pages have no backing at all (they read as zero), so
//! a freshly constructed multi-megabyte memory costs one pointer per page
//! slot, not one byte per byte. Taking a [`MemSnapshot`] clones the page
//! *table* — O(pages) reference-count bumps, no data copies — and the
//! first store to any shared page after that copies just that page
//! (`Arc::make_mut`). Restoring replaces only the page-table slots that
//! differ from the snapshot's; restoring the snapshot the memory was last
//! restored from visits only the slots written since (the memory keeps
//! their indices), so a fork pays for the pages it wrote, not for the size
//! of the address space. This is what makes
//! `Cpu::snapshot`/`Cpu::restore` cheap enough to fork one warmed-up
//! machine state into thousands of replay segments (see `replay.rs` and
//! DESIGN.md §14).

use crate::cpu::SimError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes per copy-on-write page. Aligned accesses (≤ 4 bytes) never cross
/// a page boundary, so the hot load/store paths index exactly one page.
pub const PAGE_SIZE: usize = 4096;
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

type Page = Arc<[u8; PAGE_SIZE]>;

static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Source of [`MemSnapshot`] ids: process-unique and never reused, so a
/// snapshot allocated where a dropped one lived cannot be mistaken for it.
/// 0 is never handed out and means "no snapshot".
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

fn next_snapshot_id() -> u64 {
    NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Simulator memory: a flat little-endian byte array starting at address 0,
/// stored as copy-on-write pages (`None` = an all-zero page with no
/// backing).
///
/// Natural alignment is enforced on every access — misalignment in generated
/// code is always a bug we want surfaced, not silently tolerated.
#[derive(Clone)]
pub struct Memory {
    pages: Vec<Option<Page>>,
    size: usize,
    /// Id of the snapshot this memory was last restored from (0: none).
    /// Every slot not listed in `written` is that snapshot's own.
    base: u64,
    /// Indices of the slots materialized or copy-on-write-split since the
    /// restore from `base` (possibly repeated; tracking stops, dropping
    /// `base`, once the list is as long as the page table).
    written: Vec<u32>,
}

/// A point-in-time copy of a [`Memory`]: the shared page table. Cheap to
/// take (refcount bumps only), cheap to hold (pages are shared with every
/// other snapshot and with the live memory until someone writes).
#[derive(Clone)]
pub struct MemSnapshot {
    pages: Vec<Option<Page>>,
    size: usize,
    /// Process-unique id (clones share it: they hold the same pages). Not
    /// serialized; a deserialized snapshot gets a fresh one.
    id: u64,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Memory({} bytes, {} resident pages)",
            self.size,
            self.resident_pages()
        )
    }
}

fn page_count(size: usize) -> usize {
    size.div_ceil(PAGE_SIZE)
}

impl Memory {
    /// Allocate `size` bytes of zeroed memory (lazily: no page is backed
    /// until written).
    pub fn new(size: usize) -> Memory {
        Memory {
            pages: vec![None; page_count(size)],
            size,
            base: 0,
            written: Vec::new(),
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of pages currently holding data (written since the last
    /// clear/restore lineage began). Diagnostics only.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Zero the whole memory. Uniquely-owned pages are zeroed in place
    /// (keeping their allocation for the next run); shared pages are
    /// dropped back to the zero representation. O(resident pages).
    pub fn clear(&mut self) {
        self.forget_base();
        for slot in &mut self.pages {
            if let Some(p) = slot {
                match Arc::get_mut(p) {
                    Some(buf) => buf.fill(0),
                    None => *slot = None,
                }
            }
        }
    }

    #[inline]
    fn check(&self, addr: u32, len: u32) -> Result<usize, SimError> {
        let a = addr as usize;
        if len > 1 && !addr.is_multiple_of(len) {
            return Err(SimError::Misaligned { addr });
        }
        if a + len as usize > self.size {
            return Err(SimError::OutOfBounds { addr });
        }
        Ok(a)
    }

    /// The backing bytes of the page containing offset `a` (the shared
    /// zero page when unbacked).
    #[inline]
    fn page(&self, a: usize) -> &[u8; PAGE_SIZE] {
        match &self.pages[a >> PAGE_SHIFT] {
            Some(p) => p,
            None => &ZERO_PAGE,
        }
    }

    /// Writable backing for the page containing offset `a`, materializing
    /// zero pages and copy-on-write-splitting shared ones. A slot that
    /// changes page here is listed in `written` while a base is tracked.
    #[inline]
    fn page_mut(&mut self, a: usize) -> &mut [u8; PAGE_SIZE] {
        let i = a >> PAGE_SHIFT;
        if self.base != 0 && !matches!(&self.pages[i], Some(p) if Arc::strong_count(p) == 1) {
            self.note_written(i);
        }
        let p = self.pages[i].get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
        Arc::make_mut(p)
    }

    #[cold]
    fn note_written(&mut self, i: usize) {
        if self.written.len() < self.pages.len() {
            self.written.push(i as u32);
        } else {
            // As many entries as slots: a full diff costs no more.
            self.forget_base();
        }
    }

    fn forget_base(&mut self) {
        self.base = 0;
        self.written.clear();
    }

    /// Load `len` ∈ {1, 2, 4} bytes, zero-extended.
    ///
    /// # Errors
    ///
    /// [`SimError::Misaligned`] for unaligned accesses,
    /// [`SimError::OutOfBounds`] past the end of memory.
    #[inline]
    pub fn load(&self, addr: u32, len: u32) -> Result<u32, SimError> {
        let a = self.check(addr, len)?;
        let page = self.page(a);
        let o = a & (PAGE_SIZE - 1);
        Ok(match len {
            1 => page[o] as u32,
            2 => u16::from_le_bytes([page[o], page[o + 1]]) as u32,
            4 => u32::from_le_bytes([page[o], page[o + 1], page[o + 2], page[o + 3]]),
            _ => unreachable!("unsupported access width"),
        })
    }

    /// Store the low `len` ∈ {1, 2, 4} bytes of `value`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::load`].
    #[inline]
    pub fn store(&mut self, addr: u32, len: u32, value: u32) -> Result<(), SimError> {
        let a = self.check(addr, len)?;
        let page = self.page_mut(a);
        let o = a & (PAGE_SIZE - 1);
        match len {
            1 => page[o] = value as u8,
            2 => page[o..o + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => page[o..o + 4].copy_from_slice(&value.to_le_bytes()),
            _ => unreachable!("unsupported access width"),
        }
        Ok(())
    }

    /// Copy a byte slice into memory (no alignment requirement).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let mut a = addr as usize;
        assert!(a + data.len() <= self.size, "write_bytes out of range");
        let mut data = data;
        while !data.is_empty() {
            let o = a & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - o).min(data.len());
            self.page_mut(a)[o..o + n].copy_from_slice(&data[..n]);
            a += n;
            data = &data[n..];
        }
    }

    /// Read a byte range out of memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut a = addr as usize;
        assert!(a + len <= self.size, "read_bytes out of range");
        let mut out = Vec::with_capacity(len);
        let mut remaining = len;
        while remaining > 0 {
            let o = a & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - o).min(remaining);
            out.extend_from_slice(&self.page(a)[o..o + n]);
            a += n;
            remaining -= n;
        }
        out
    }

    /// Whole-memory logical equality. Pages shared between the two tables
    /// (the common case after copy-on-write forks) compare by pointer.
    pub fn bytes_eq(&self, other: &Memory) -> bool {
        self.size == other.size && pages_eq(&self.pages, &other.pages)
    }

    /// Byte-range equality against a snapshot: pointer-compare pages
    /// shared between the two tables (the common case after copy-on-write
    /// forks), byte-compare the overlapping slice of the rest. The cheap
    /// "has this code window changed?" probe behind warm restores
    /// (`Cpu::restore` keeps the code window — decoded slots and lowered
    /// blocks — when the code bytes are unchanged). Out-of-range in either side compares unequal.
    pub fn range_eq(&self, snap: &MemSnapshot, addr: u32, len: usize) -> bool {
        let a = addr as usize;
        let end = match a.checked_add(len) {
            Some(e) if e <= self.size && e <= snap.size => e,
            _ => return false,
        };
        if len == 0 {
            return true;
        }
        let (p0, p1) = (a >> PAGE_SHIFT, (end - 1) >> PAGE_SHIFT);
        (p0..=p1).all(|pi| match (&self.pages[pi], &snap.pages[pi]) {
            (Some(p), Some(q)) if Arc::ptr_eq(p, q) => true,
            (x, y) => {
                let lo = if pi == p0 { a & (PAGE_SIZE - 1) } else { 0 };
                let hi = if pi == p1 {
                    ((end - 1) & (PAGE_SIZE - 1)) + 1
                } else {
                    PAGE_SIZE
                };
                page_bytes(x)[lo..hi] == page_bytes(y)[lo..hi]
            }
        })
    }

    /// Take a point-in-time snapshot: O(pages) refcount bumps.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            pages: self.pages.clone(),
            size: self.size,
            id: next_snapshot_id(),
        }
    }

    /// Restore a previously taken snapshot (adopting its size if it
    /// differs). Only the page-table slots that differ from the
    /// snapshot's are replaced: a fork that wrote a handful of pages
    /// pays for those, not a refcount round trip on every page it still
    /// shares. Restoring the snapshot this memory was last restored from
    /// visits only the slots written since — O(pages written), not
    /// O(pages). Any other snapshot is diffed slot by slot (a different
    /// page count copies the table) and becomes the tracked base.
    ///
    /// The written-slot list is sound because every slot outside it still
    /// holds the base snapshot's page, which that snapshot keeps shared:
    /// a store to it copy-on-write-splits the slot, and splits are listed.
    /// A page only becomes writable in place after all copies of the
    /// snapshot are dropped, and then no restore can name its id again.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        if self.base == snap.id && self.pages.len() == snap.pages.len() {
            for &i in &self.written {
                let i = i as usize;
                self.pages[i].clone_from(&snap.pages[i]);
            }
        } else if self.pages.len() == snap.pages.len() {
            for (mine, theirs) in self.pages.iter_mut().zip(&snap.pages) {
                if !same_slot(mine, theirs) {
                    mine.clone_from(theirs);
                }
            }
        } else {
            self.pages.clone_from(&snap.pages);
        }
        self.size = snap.size;
        self.base = snap.id;
        self.written.clear();
    }
}

/// Whether two page-table slots hold the same page: the same `Arc`, or
/// both unbacked.
fn same_slot(a: &Option<Page>, b: &Option<Page>) -> bool {
    match (a, b) {
        (Some(p), Some(q)) => Arc::ptr_eq(p, q),
        (None, None) => true,
        _ => false,
    }
}

fn page_bytes(p: &Option<Page>) -> &[u8; PAGE_SIZE] {
    match p {
        Some(p) => p,
        None => &ZERO_PAGE,
    }
}

fn pages_eq(a: &[Option<Page>], b: &[Option<Page>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| same_slot(x, y) || page_bytes(x) == page_bytes(y))
}

impl MemSnapshot {
    /// Snapshot size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Logical equality against another snapshot (pointer-compare shared
    /// pages, byte-compare the rest).
    pub fn bytes_eq(&self, other: &MemSnapshot) -> bool {
        self.size == other.size && pages_eq(&self.pages, &other.pages)
    }

    /// Copy out `len` bytes starting at `addr` (zero pages read as
    /// zeroes) — the read-back primitive for captured results.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the snapshot size.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut a = addr as usize;
        assert!(a + len <= self.size, "read_bytes out of range");
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let page = page_bytes(&self.pages[a >> PAGE_SHIFT]);
            let off = a & (PAGE_SIZE - 1);
            let take = (PAGE_SIZE - off).min(len - out.len());
            out.extend_from_slice(&page[off..off + take]);
            a += take;
        }
        out
    }

    /// Serialize: size, then each non-zero page as `(index, raw bytes)` —
    /// the compact on-disk form (DESIGN.md §14).
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.size as u64).to_le_bytes());
        let nonzero: Vec<(usize, &Page)> = self
            .pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
            .filter(|(_, p)| ***p != ZERO_PAGE)
            .collect();
        out.extend_from_slice(&(nonzero.len() as u64).to_le_bytes());
        for (i, p) in nonzero {
            out.extend_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&**p);
        }
    }

    /// Deserialize a [`MemSnapshot::write_to`] image, advancing `pos`.
    pub(crate) fn read_from(buf: &[u8], pos: &mut usize) -> Option<MemSnapshot> {
        let size = read_u64(buf, pos)? as usize;
        let n = read_u64(buf, pos)? as usize;
        let slots = page_count(size);
        let mut pages: Vec<Option<Page>> = vec![None; slots];
        for _ in 0..n {
            let idx = read_u64(buf, pos)? as usize;
            if idx >= slots || buf.len() < *pos + PAGE_SIZE {
                return None;
            }
            let mut page = [0u8; PAGE_SIZE];
            page.copy_from_slice(&buf[*pos..*pos + PAGE_SIZE]);
            *pos += PAGE_SIZE;
            pages[idx] = Some(Arc::new(page));
        }
        Some(MemSnapshot {
            pages,
            size,
            id: next_snapshot_id(),
        })
    }
}

pub(crate) fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat_devtools::Rng;

    /// Whether every page slot of `m` is the snapshot's own: the same
    /// `Arc` where the snapshot has a page, unbacked where it has none.
    fn shares_every_page(m: &Memory, snap: &MemSnapshot) -> bool {
        m.size == snap.size
            && m.pages.len() == snap.pages.len()
            && m.pages
                .iter()
                .zip(&snap.pages)
                .all(|(a, b)| same_slot(a, b))
    }

    /// Random aligned word stores anywhere in `m`, so they hit pages the
    /// last snapshot backs as well as pages it left unbacked.
    fn scribble(m: &mut Memory, rng: &mut Rng, n: u64) {
        let words = (m.size() / 4) as u64;
        for _ in 0..n {
            let addr = (rng.below(words) * 4) as u32;
            m.store(addr, 4, rng.u32()).unwrap();
        }
    }

    #[test]
    fn load_store_widths() {
        let mut m = Memory::new(64);
        m.store(0, 4, 0xdead_beef).unwrap();
        assert_eq!(m.load(0, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.load(0, 2).unwrap(), 0xbeef);
        assert_eq!(m.load(2, 2).unwrap(), 0xdead);
        assert_eq!(m.load(3, 1).unwrap(), 0xde);
        m.store(8, 2, 0x1234).unwrap();
        assert_eq!(m.load(8, 4).unwrap(), 0x1234);
    }

    #[test]
    fn alignment_enforced() {
        let m = Memory::new(64);
        assert_eq!(m.load(1, 4), Err(SimError::Misaligned { addr: 1 }));
        assert_eq!(m.load(1, 2), Err(SimError::Misaligned { addr: 1 }));
        assert!(m.load(1, 1).is_ok());
    }

    #[test]
    fn bounds_enforced() {
        let m = Memory::new(8);
        assert_eq!(m.load(8, 4), Err(SimError::OutOfBounds { addr: 8 }));
        assert!(m.load(4, 4).is_ok());
    }

    #[test]
    fn byte_slices() {
        let mut m = Memory::new(16);
        m.write_bytes(4, &[1, 2, 3]);
        assert_eq!(m.read_bytes(4, 3), &[1, 2, 3]);
    }

    #[test]
    fn byte_slices_across_page_boundary() {
        let mut m = Memory::new(3 * PAGE_SIZE);
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| i as u8).collect();
        let base = (PAGE_SIZE - 50) as u32;
        m.write_bytes(base, &data);
        assert_eq!(m.read_bytes(base, data.len()), data);
        // 50 bytes on page 0, all of page 1, 50 bytes on page 2.
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = Memory::new(64);
        m.store(8, 4, 0xdead_beef).unwrap();
        m.write_bytes(40, &[7; 3]);
        m.clear();
        assert_eq!(m.read_bytes(0, 64), &[0; 64]);
        // Clear twice is idempotent.
        m.clear();
        m.store(0, 1, 0xff).unwrap();
        m.clear();
        assert_eq!(m.load(0, 1).unwrap(), 0);
    }

    #[test]
    fn snapshot_is_copy_on_write() {
        let mut m = Memory::new(4 * PAGE_SIZE);
        m.store(0, 4, 11).unwrap();
        m.store(PAGE_SIZE as u32, 4, 22).unwrap();
        let snap = m.snapshot();
        // Post-snapshot writes must not leak into the snapshot.
        m.store(0, 4, 99).unwrap();
        m.store(2 * PAGE_SIZE as u32, 4, 33).unwrap();
        assert_eq!(m.load(0, 4).unwrap(), 99);
        let mut back = Memory::new(4 * PAGE_SIZE);
        back.restore(&snap);
        assert_eq!(back.load(0, 4).unwrap(), 11);
        assert_eq!(back.load(PAGE_SIZE as u32, 4).unwrap(), 22);
        assert_eq!(back.load(2 * PAGE_SIZE as u32, 4).unwrap(), 0);
        assert!(!m.bytes_eq(&back));
        m.restore(&snap);
        assert!(m.bytes_eq(&back));
    }

    /// `restore` by pointer diff: after random stores into a fork, the
    /// restored memory holds the snapshot's bytes and every page slot is
    /// the snapshot's own page, so no private page is left over and no
    /// page was copied. Restoring across a size change takes the
    /// table-copy path to the same result. The written-slot path (a
    /// restore from the snapshot last restored) must hold through
    /// interleaved restores from two snapshots, `clear`, a cloned memory,
    /// a deserialized snapshot and a dropped one.
    #[test]
    fn restore_shares_every_page_with_the_snapshot() {
        let mut rng = Rng::new(0x5eed_0017);
        let restored = |m: &Memory, snap: &MemSnapshot| {
            m.snapshot().bytes_eq(snap) && shares_every_page(m, snap)
        };
        for case in 0..64 {
            let pages = 2 + rng.below(8) as usize;
            let mut m = Memory::new(pages * PAGE_SIZE);
            let n = rng.below(2 * pages as u64);
            scribble(&mut m, &mut rng, n);
            let snap = m.snapshot();
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            m.restore(&snap);
            assert!(m.snapshot().bytes_eq(&snap), "case {case}: bytes");
            assert!(shares_every_page(&m, &snap), "case {case}: pages");

            // Interleaved restores from two snapshots, each fork
            // scribbled, some restored twice in a row (the written-slot
            // path) and some after a switch (the full diff).
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            let other_snap = m.snapshot();
            for step in 0..8 {
                let target = if rng.bool() { &snap } else { &other_snap };
                let n = rng.below(4 * pages as u64);
                scribble(&mut m, &mut rng, n);
                m.restore(target);
                assert!(restored(&m, target), "case {case} step {step}: interleaved");
            }

            // `clear` forgets the tracked snapshot: the next restore
            // diffs every slot.
            m.restore(&snap);
            m.clear();
            let n = rng.below(2 * pages as u64);
            scribble(&mut m, &mut rng, n);
            m.restore(&snap);
            assert!(restored(&m, &snap), "case {case}: after clear");

            // A clone carries the tracked snapshot and its written list;
            // both copies restore on their own.
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            let mut twin = m.clone();
            let n = rng.below(4 * pages as u64);
            scribble(&mut twin, &mut rng, n);
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            twin.restore(&snap);
            m.restore(&snap);
            assert!(restored(&twin, &snap), "case {case}: clone");
            assert!(restored(&m, &snap), "case {case}: cloned-from");

            // A deserialized snapshot has its own id: restoring it diffs
            // every slot even though its bytes equal the tracked one's.
            let mut buf = Vec::new();
            snap.write_to(&mut buf);
            let loaded = MemSnapshot::read_from(&buf, &mut 0).expect("parses");
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            m.restore(&loaded);
            assert!(restored(&m, &loaded), "case {case}: deserialized");
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            m.restore(&loaded);
            assert!(restored(&m, &loaded), "case {case}: deserialized again");

            // Once every copy of the tracked snapshot is dropped its pages
            // become writable in place, unlisted; a new snapshot (a fresh
            // id, even at a reused address) must still restore exactly.
            let dropped = m.snapshot();
            m.restore(&dropped);
            drop(dropped);
            drop(loaded);
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            let fresh = m.snapshot();
            let n = rng.below(4 * pages as u64);
            scribble(&mut m, &mut rng, n);
            m.restore(&fresh);
            assert!(
                restored(&m, &fresh),
                "case {case}: after a dropped snapshot"
            );

            // A memory of another size adopts the snapshot's geometry.
            let other = if rng.bool() { pages + 3 } else { 1 };
            let mut resized = Memory::new(other * PAGE_SIZE);
            scribble(&mut resized, &mut rng, 8);
            resized.restore(&snap);
            assert_eq!(resized.size(), snap.size(), "case {case}: size");
            assert!(
                resized.snapshot().bytes_eq(&snap),
                "case {case}: resized bytes"
            );
            assert!(
                shares_every_page(&resized, &snap),
                "case {case}: resized pages"
            );
        }
    }

    /// A restore from the tracked snapshot visits only the listed slots:
    /// with one page written since, one slot is listed, and the list is
    /// empty again afterwards.
    #[test]
    fn repeated_restore_lists_only_written_pages() {
        let mut m = Memory::new(64 * PAGE_SIZE);
        for p in 0..8 {
            m.store((p * PAGE_SIZE) as u32, 4, p as u32 + 1).unwrap();
        }
        let snap = m.snapshot();
        m.restore(&snap);
        assert!(m.written.is_empty());
        m.store(3 * PAGE_SIZE as u32, 4, 99).unwrap();
        m.store(3 * PAGE_SIZE as u32 + 4, 4, 98).unwrap();
        m.store(40 * PAGE_SIZE as u32, 4, 97).unwrap();
        assert_eq!(m.written, vec![3, 40], "split and materialized, once each");
        m.restore(&snap);
        assert!(m.written.is_empty());
        assert!(shares_every_page(&m, &snap));
        // Untracked memory keeps no list.
        m.clear();
        m.store(0, 4, 1).unwrap();
        assert!(m.written.is_empty());
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let mut m = Memory::new(4 * PAGE_SIZE);
        m.write_bytes(10, &[1, 2, 3, 4]);
        m.store((2 * PAGE_SIZE + 8) as u32, 4, 0xfeed).unwrap();
        let snap = m.snapshot();
        let mut buf = Vec::new();
        snap.write_to(&mut buf);
        let mut pos = 0;
        let back = MemSnapshot::read_from(&buf, &mut pos).expect("parses");
        assert_eq!(pos, buf.len());
        assert!(snap.bytes_eq(&back));
        // An explicitly zeroed page serializes away (compactness).
        m.clear();
        let mut buf2 = Vec::new();
        m.snapshot().write_to(&mut buf2);
        assert!(buf2.len() < 32);
    }
}
