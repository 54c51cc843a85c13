//! Known-bad clone of the sim crate's flight slab: drops the module's
//! `#![deny(unsafe_code)]` guard and commits every determinism sin the
//! slab refactor was tempted by. Lexed by the fixture tests under the
//! path `crates/sim/src/slab.rs`; never compiled.

use std::collections::HashMap; // line: hash
use std::time::Instant;

pub struct FlightSlab<V> {
    slots: HashMap<u32, V>, // line: hash-field
    touched_at: u64,
}

impl<V> FlightSlab<V> {
    pub fn insert(&mut self, id: u32, value: V) -> u32 {
        self.touched_at = Instant::now().elapsed().as_nanos() as u64; // line: clock
        self.slots.insert(id, value);
        id
    }

    pub fn get_fast(&self, id: u32) -> Option<&V> {
        unsafe { self.slots.get(&id).map(|v| &*(v as *const V)) } // line: unsafe
    }
}
