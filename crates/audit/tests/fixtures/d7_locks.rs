// Planted D7 violations — a double-lock, and an AB/BA inversion
// whose two witnesses must both be reported. Never compiled: the
// cross-file fixture tests scan this text through `audit_files` and
// assert the exact rule@line set.
use std::sync::Mutex;

pub struct Shared {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Shared {
    pub fn double(&self) -> u32 {
        let g1 = self.a.lock().unwrap();
        let g2 = self.a.lock().unwrap();
        *g1 + *g2
    }

    pub fn ab(&self) -> u32 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }

    pub fn ba(&self) -> u32 {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        *ga + *gb
    }
}
