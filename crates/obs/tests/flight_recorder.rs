//! S3 pin: the flight-recorder ring under concurrent writers.
//!
//! Many engine threads record into the same fixed-capacity ring while it
//! wraps; a reader snapshotting mid-flight must never observe a torn
//! event — every event is either fully one writer's record or fully
//! another's. Events are plain `Copy` data behind the buffer mutex, so
//! this holds by construction; the test pins it against a future "make
//! the ring lock-free" refactor done carelessly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fpsa_obs::{Mode, Phase, Tracer};

/// Every recorded event carries two args that must stay mutually
/// consistent: `("lo", v)` and `("hi", v + 1)` where `v` encodes the
/// writer and its sequence number. A torn event would pair a `lo` from
/// one record with a `hi` from another.
fn assert_untorn(events: &[fpsa_obs::Event]) {
    for event in events {
        assert_eq!(event.phase, Phase::Instant);
        assert_eq!(event.name, "tick");
        let args = event.args();
        assert_eq!(args.len(), 2, "every writer records two args");
        assert_eq!(args[0].0, "lo");
        assert_eq!(args[1].0, "hi");
        assert_eq!(
            args[1].1,
            args[0].1 + 1,
            "torn event: lo and hi come from different records"
        );
    }
}

#[test]
fn concurrent_writers_never_tear_ring_events() {
    const WRITERS: i64 = 4;
    const EVENTS_PER_WRITER: i64 = 5_000;
    // Small ring: it wraps hundreds of times under the writers.
    let tracer = Arc::new(Tracer::with_flight_capacity(64));
    tracer.set_mode(Mode::FlightRecorder);

    let stop = Arc::new(AtomicBool::new(false));
    // Snapshots the reader has finished: each writer waits at its halfway
    // point for one that started after it got there, so the reader is
    // certain to see the ring mid-flight however the threads are scheduled.
    let completed = Arc::new(AtomicU64::new(0));
    let reader = {
        let tracer = Arc::clone(&tracer);
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                assert_untorn(&tracer.flight_events());
                snapshots += 1;
                completed.fetch_add(1, Ordering::Release);
            }
            snapshots
        })
    };

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let tracer = Arc::clone(&tracer);
            let (completed, reader) = (&completed, &reader);
            scope.spawn(move || {
                for seq in 0..EVENTS_PER_WRITER {
                    if seq == EVENTS_PER_WRITER / 2 {
                        // The snapshot in progress may predate this point;
                        // the one after it cannot. A reader that died (a
                        // torn event) ends the wait; `join` reports it.
                        let seen = completed.load(Ordering::Acquire);
                        while completed.load(Ordering::Acquire) < seen + 2 && !reader.is_finished()
                        {
                            std::thread::yield_now();
                        }
                    }
                    let v = writer * EVENTS_PER_WRITER + seq;
                    tracer.instant("tick", "test", seq as u64, &[("lo", v), ("hi", v + 1)]);
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().expect("reader thread");
    assert!(snapshots > 0, "the reader observed the ring mid-flight");

    // Final state: the ring saw every record and retains the newest 64,
    // all untorn.
    let finale = tracer.flight_events();
    assert_eq!(finale.len(), 64);
    assert_untorn(&finale);
    assert_eq!(tracer.flight_total(), (WRITERS * EVENTS_PER_WRITER) as u64);
}

#[test]
fn a_dump_under_concurrent_writers_is_internally_consistent() {
    let tracer = Arc::new(Tracer::with_flight_capacity(32));
    tracer.set_mode(Mode::FlightRecorder);

    std::thread::scope(|scope| {
        for writer in 0..3i64 {
            let tracer = Arc::clone(&tracer);
            scope.spawn(move || {
                for seq in 0..2_000i64 {
                    let v = writer * 2_000 + seq;
                    tracer.instant("tick", "test", seq as u64, &[("lo", v), ("hi", v + 1)]);
                }
            });
        }
        // Dump repeatedly while the writers hammer the ring.
        let tracer = Arc::clone(&tracer);
        scope.spawn(move || {
            for i in 0..200i64 {
                if let Some(dump) = tracer.dump_flight("test.trigger", &[("round", i)]) {
                    assert_eq!(dump.reason, "test.trigger");
                    assert_eq!(dump.args, vec![("round", i)]);
                    assert_untorn(&dump.events);
                    assert!(dump.total_recorded >= dump.events.len() as u64);
                }
            }
        });
    });
}
