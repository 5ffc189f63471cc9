//! Allocation pin for the CSV reader: parsing allocates per column and per
//! level, never per cell or per row, and beyond the input text it holds no
//! more than the columns it returns.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, and the
//! counts are per thread, so the one test below measures undisturbed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use smartml_data::io::parse_csv;
use smartml_data::Feature;

thread_local! {
    // `const` and without a destructor: touching it never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn allocated(bytes: usize) {
    if MEASURING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        LIVE_BYTES.set(LIVE_BYTES.get() + bytes as isize);
        PEAK_BYTES.set(PEAK_BYTES.get().max(LIVE_BYTES.get()));
    }
}

fn freed(bytes: usize) {
    if MEASURING.get() {
        LIVE_BYTES.set(LIVE_BYTES.get() - bytes as isize);
    }
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping around it touches only
// const-initialised thread-locals and so never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A block that moves is live twice for a moment: count it so.
        allocated(new_size);
        freed(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation count and peak live bytes of `parse_csv(text)`, and its result.
fn measure(text: &str) -> (usize, usize, smartml_data::Dataset) {
    ALLOCATIONS.set(0);
    LIVE_BYTES.set(0);
    PEAK_BYTES.set(0);
    MEASURING.set(true);
    let parsed = parse_csv("pinned", text, None);
    MEASURING.set(false);
    let data = parsed.expect("generated CSV parses");
    (ALLOCATIONS.get(), PEAK_BYTES.get() as usize, data)
}

const ROWS: usize = 20_000;

const LEVELS: usize = 5_000;

/// `ROWS` rows of eight 17-significant-digit numbers and a three-class
/// label; `with_levels` adds a column of `LEVELS` distinct levels.
fn csv(with_levels: bool) -> String {
    let mut text = String::from("f0,f1,f2,f3,f4,f5,f6,f7,");
    text.push_str(if with_levels { "kind,class\n" } else { "class\n" });
    let mut x = 0.123_456_789_012_345_67_f64;
    for row in 0..ROWS {
        for _ in 0..8 {
            x = (x * 997.0 + 0.618_033_988_749_894_9).fract();
            write!(text, "{},", x - 0.5).unwrap();
        }
        if with_levels {
            // Each level first appears in order; then they come shuffled.
            let level = if row < LEVELS { row } else { (row * 7919) % LEVELS };
            write!(text, "level-{level},").unwrap();
        }
        writeln!(text, "c{}", row % 3).unwrap();
    }
    text
}

#[test]
fn allocations_are_per_column_and_level_not_per_cell() {
    let text = csv(false);
    let (allocations, peak, data) = measure(&text);
    assert_eq!((data.n_rows(), data.n_features(), data.n_classes()), (ROWS, 8, 3));
    // A `Vec` doubling to 20 000 entries reallocates ~13 times per column.
    assert!(allocations < 1_000, "{allocations} allocations for {} cells", ROWS * 9);
    assert!(peak <= text.len(), "peak {peak} B beyond a {} B text", text.len());

    // Interning is a hash lookup per cell, not a scan of the levels so far;
    // the index and the names fit in the same bound.
    let text = csv(true);
    let (allocations, peak, data) = measure(&text);
    assert_eq!((data.n_rows(), data.n_features()), (ROWS, 9));
    match data.feature(8) {
        Feature::Categorical { levels, codes, .. } => {
            assert_eq!(levels.len(), LEVELS);
            assert_eq!(levels[LEVELS - 1], format!("level-{}", LEVELS - 1));
            assert_eq!(codes[LEVELS] as usize, (LEVELS * 7919) % LEVELS);
        }
        Feature::Numeric { .. } => panic!("expected categorical"),
    }
    // One `String` per level, plus the hash index growing by doubling.
    assert!(allocations < LEVELS + 1_000, "{allocations} allocations for {LEVELS} levels");
    assert!(peak <= text.len(), "peak {peak} B beyond a {} B text", text.len());
}
