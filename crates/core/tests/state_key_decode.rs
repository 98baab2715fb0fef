//! Hardening of the state-key decoder: `decode_state` is fed bytes
//! from outside the process (witness keys travel the wire), so it must
//! never panic, and a declared memory-plane length it will reject must
//! be rejected before anything sized by it is allocated.
//!
//! The allocation bound is checked with a counting global allocator
//! that records the largest single request made by the current thread,
//! so concurrently running tests cannot disturb the measurement.

use proptest::prelude::*;
use pscp_core::explore::{decode_state, encode_state, MAX_PLANE_WORDS, STATE_KEY_VERSION};
use pscp_core::machine::SemanticState;
use pscp_core::serve::wire::WireError;
use pscp_statechart::semantics::ControlState;
use pscp_tep::TepDataState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PeakRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note(size: usize) {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

#[global_allocator]
static ALLOC: PeakRequest = PeakRequest;

/// Runs `f` and returns its result with the largest single allocation
/// it requested on this thread.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A small valid state: three nonzero memory words in three planes.
fn sample_state() -> SemanticState {
    SemanticState {
        control: ControlState {
            active: vec![true, false, true],
            conditions: vec![false],
            pending_internal: Vec::new(),
            history: vec![None],
        },
        timers: vec![Some(3), None],
        pending_timer_events: Vec::new(),
        data: TepDataState {
            acc: 5,
            op: -2,
            regs: vec![0, 9, 0, 0],
            iram: vec![0; 64],
            xram: {
                let mut x = vec![0; 256];
                x[200] = -7;
                x
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder — with and without a
    /// valid version byte in front.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        versioned in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if versioned && !bytes.is_empty() {
            bytes[0] = STATE_KEY_VERSION;
        }
        let _ = decode_state(&bytes);
    }

    /// A valid key with a window overwritten by random bytes reaches
    /// deep into the decoder; it still never panics, and whatever it
    /// accepts is canonical (re-encodes to the same bytes).
    #[test]
    fn decode_never_panics_on_mangled_keys(
        at in any::<usize>(),
        junk in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut key = encode_state(&sample_state());
        let start = at % key.len();
        for (slot, b) in key[start..].iter_mut().zip(junk) {
            *slot = b;
        }
        if let Ok(state) = decode_state(&key) {
            prop_assert_eq!(encode_state(&state), key);
        }
    }

    /// A plane declaring more than `MAX_PLANE_WORDS` words is a typed
    /// error, and the decoder allocates nothing sized by the declared
    /// length on the way.
    #[test]
    fn huge_declared_plane_length_is_rejected_without_allocating(
        len in (MAX_PLANE_WORDS + 1)..=u32::MAX,
        plane in 0usize..3,
    ) {
        let mut state = sample_state();
        state.data.regs.clear();
        state.data.iram.clear();
        state.data.xram.clear();
        let mut key = encode_state(&state);
        // With every plane empty, the key ends in three 8-byte
        // `len, count` sections: regs, IRAM, XRAM.
        let at = key.len() - 24 + 8 * plane;
        key[at..at + 4].copy_from_slice(&len.to_le_bytes());
        let (result, largest) = largest_request(|| decode_state(&key));
        let rejected_as_too_large =
            matches!(result, Err(WireError::TooLarge { len: l, .. }) if l == u64::from(len));
        prop_assert!(rejected_as_too_large, "got {:?}", result);
        prop_assert!(largest < 4096, "decoder requested {} bytes", largest);
    }
}

#[test]
fn largest_legal_plane_round_trips() {
    let mut state = sample_state();
    state.data.xram = vec![0; MAX_PLANE_WORDS as usize];
    state.data.xram[MAX_PLANE_WORDS as usize - 1] = 1;
    let key = encode_state(&state);
    assert!(key.len() < 200, "a sparse plane costs only its nonzero words");
    assert_eq!(decode_state(&key).unwrap(), state);
}
