//! Negative fixture: exercises every shape the two analyses look at —
//! a hot root with a call chain, a waived panic site, a meter
//! registration — without violating anything. The whole tree must lint
//! clean.

pub struct Engine {
    slots: Vec<u32>,
}

impl Engine {
    // lint:hot-root — fixture clean path
    pub fn submit(&self) -> u32 {
        saturating(self.first(), self.spare())
    }

    fn first(&self) -> u32 {
        self.slots.first().copied().unwrap_or(0)
    }

    #[expect(clippy::expect_used, reason = "fixture: the slot exists by construction")]
    fn spare(&self) -> u32 {
        self.slots.get(1).copied().expect("two slots")
    }
}

fn saturating(a: u32, b: u32) -> u32 {
    a.checked_add(b).unwrap_or(u32::MAX)
}

pub struct Sink;

impl Sink {
    pub fn counter(&self, _name: &str) -> u32 {
        0
    }
}

pub fn init(sink: &Sink) -> u32 {
    sink.counter("fix.documented")
}
