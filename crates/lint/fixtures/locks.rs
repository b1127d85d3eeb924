//! Fixture: two functions acquire the same pair of locks in opposite
//! order — the classic AB/BA deadlock, which the lock-order graph must
//! report as a cycle. Then the same deadlock through a tuple-struct lock
//! and an enum-variant lock, which have no field name to become graph
//! nodes by: each declaration must be reported instead.
//! Not compiled — lexed by the fixture tests in `tests/lint.rs`.

use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }

    pub fn backward(&self) -> u32 {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        *ga - *gb
    }
}

pub struct Guarded(Mutex<u32>);

pub enum Slot {
    Empty,
    Held(Mutex<u32>),
}

impl Guarded {
    pub fn guarded_then_slot(&self, slot: &Slot) -> u32 {
        let g = self.0.lock().unwrap();
        match slot {
            Slot::Held(m) => *g + *m.lock().unwrap(),
            Slot::Empty => *g,
        }
    }
}

impl Slot {
    pub fn slot_then_guarded(&self, guarded: &Guarded) -> u32 {
        match self {
            Slot::Held(m) => {
                let h = m.lock().unwrap();
                *h + *guarded.0.lock().unwrap()
            }
            Slot::Empty => 0,
        }
    }
}
