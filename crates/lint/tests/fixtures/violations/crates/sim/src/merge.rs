//! Fixture: merge-order violations plus a cross-crate inline seed label.

pub fn drain(rx: &Receiver<u32>, buf: &mut Vec<u32>) {
    while let Ok(b) = rx.try_recv() {
        buf.push(b);
    }
    for x in buf.iter() {
        consume(*x);
    }
}

pub fn par(scope: &Scope, stats: &mut Stats, other: &Stats) {
    scope.spawn(move || {
        stats.merge(other);
    });
}

pub fn shared(seeds: &SeedSequence) {
    let _rng = seeds.rng_for_labeled(0, "shared-label");
}

pub fn lanes(lanes: &Lanes, inbox: &mut Vec<Envelope>) {
    lanes.drain_lanes(0, inbox);
    for e in inbox.iter() {
        deliver(e);
    }
}
