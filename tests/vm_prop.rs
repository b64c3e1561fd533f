//! Property tests for the Virtual Message layer: under an adversarial
//! network (arbitrary loss, duplication, and batching of frames), every
//! created Vm is accepted exactly once and eventually completes, and the
//! total transferred amount is conserved.

use bytes::Bytes;
use dvp::vmsg::{Frame, Receipt, VmConfig, VmEndpoint, WireDatagram};
use proptest::prelude::*;

/// One adversarial step applied to the channel between two endpoints.
#[derive(Clone, Debug)]
enum Step {
    /// Sender mints a Vm carrying `amount`.
    Create(u8),
    /// Deliver up to `n` queued frames sender→receiver, dropping each
    /// with the given mask bit and duplicating with the dup mask bit.
    DeliverToReceiver { n: u8, drop_mask: u8, dup_mask: u8 },
    /// Deliver queued frames receiver→sender (acks), with loss.
    DeliverToSender { n: u8, drop_mask: u8 },
    /// Sender retransmission timer fires.
    Tick,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..20).prop_map(Step::Create),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(n, drop_mask, dup_mask)| {
            Step::DeliverToReceiver {
                n: n % 8,
                drop_mask,
                dup_mask,
            }
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(n, drop_mask)| Step::DeliverToSender {
            n: n % 8,
            drop_mask
        }),
        Just(Step::Tick),
    ]
}

#[derive(Default)]
struct Wire {
    to_receiver: Vec<Frame>,
    to_sender: Vec<Frame>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adversarial_schedules_never_lose_or_double_value(
        steps in proptest::collection::vec(step_strategy(), 1..120)
    ) {
        let cfg = VmConfig { window: 4, eager_acks: true };
        let mut sender = VmEndpoint::new(0, cfg);
        let mut receiver = VmEndpoint::new(1, cfg);
        let mut wire = Wire::default();
        let mut created_total: u64 = 0;
        let mut accepted_total: u64 = 0;

        let run_step = |step: &Step,
                            sender: &mut VmEndpoint,
                            receiver: &mut VmEndpoint,
                            wire: &mut Wire,
                            created_total: &mut u64,
                            accepted_total: &mut u64| {
            match step {
                Step::Create(amount) => {
                    let _op = sender.create(1, Bytes::from(vec![*amount]));
                    *created_total += *amount as u64;
                }
                Step::DeliverToReceiver { n, drop_mask, dup_mask } => {
                    for (to, f) in sender.drain_outbox() {
                        assert_eq!(to, 1);
                        wire.to_receiver.push(f);
                    }
                    for k in 0..(*n as usize).min(wire.to_receiver.len()) {
                        if wire.to_receiver.is_empty() { break; }
                        let f = wire.to_receiver.remove(0);
                        let _ = k;
                        let copies = if dup_mask & (1 << (k % 8)) != 0 { 2 } else { 1 };
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue; // lost
                        }
                        for _ in 0..copies {
                            if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f.clone()) {
                                *accepted_total += payload[0] as u64;
                                receiver.commit_accept(0, seq);
                            }
                        }
                    }
                }
                Step::DeliverToSender { n, drop_mask } => {
                    receiver.flush_owed_ack(0);
                    for (to, f) in receiver.drain_outbox() {
                        assert_eq!(to, 0);
                        wire.to_sender.push(f);
                    }
                    for k in 0..(*n as usize) {
                        if wire.to_sender.is_empty() { break; }
                        let f = wire.to_sender.remove(0);
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue;
                        }
                        sender.on_frame(1, f);
                    }
                }
                Step::Tick => sender.tick(),
            }
        };

        for step in &steps {
            run_step(step, &mut sender, &mut receiver, &mut wire,
                     &mut created_total, &mut accepted_total);
        }

        // Invariant during the run: never accept more than was created.
        prop_assert!(accepted_total <= created_total);

        // Drain to quiescence over a reliable network: everything created
        // must complete ("a Vm is never lost").
        for _ in 0..2048 {
            if !sender.has_outstanding() && wire.to_receiver.is_empty() && wire.to_sender.is_empty() {
                break;
            }
            run_step(&Step::Tick, &mut sender, &mut receiver, &mut wire,
                     &mut created_total, &mut accepted_total);
            run_step(&Step::DeliverToReceiver { n: 7, drop_mask: 0, dup_mask: 0 },
                     &mut sender, &mut receiver, &mut wire,
                     &mut created_total, &mut accepted_total);
            run_step(&Step::DeliverToSender { n: 7, drop_mask: 0 },
                     &mut sender, &mut receiver, &mut wire,
                     &mut created_total, &mut accepted_total);
        }
        prop_assert!(!sender.has_outstanding(), "all Vms must complete");
        prop_assert_eq!(accepted_total, created_total,
            "exactly-once acceptance of every created amount");
        prop_assert_eq!(sender.stats().created, receiver.stats().accepted);
    }

    /// Crash-and-replay at arbitrary points preserves exactly-once
    /// semantics: the receiver's durable cursor dedups retransmissions,
    /// the sender's durable Created ops resume retransmission.
    #[test]
    fn crash_replay_preserves_exactly_once(
        amounts in proptest::collection::vec(1u8..20, 1..12),
        crash_sender_at in 0usize..12,
        crash_receiver_at in 0usize..12,
    ) {
        let cfg = VmConfig { window: 8, eager_acks: true };
        let mut sender = VmEndpoint::new(0, cfg);
        let mut receiver = VmEndpoint::new(1, cfg);
        let mut sender_log = Vec::new();   // durable Created ops
        let mut receiver_log = Vec::new(); // durable Accepted ops
        let mut accepted_total = 0u64;
        let created_total: u64 = amounts.iter().map(|&a| a as u64).sum();

        for (i, &a) in amounts.iter().enumerate() {
            sender_log.push(sender.create(1, Bytes::from(vec![a])));

            if i == crash_sender_at {
                sender.crash_reset();
                for op in &sender_log {
                    sender.replay(op);
                }
            }
            if i == crash_receiver_at {
                receiver.crash_reset();
                for op in &receiver_log {
                    receiver.replay(op);
                }
            }

            // A lossy delivery round (arbitrarily drop every other frame).
            for (k, (_, f)) in sender.drain_outbox().into_iter().enumerate() {
                if k % 2 == 0 {
                    if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f) {
                        accepted_total += payload[0] as u64;
                        receiver_log.push(receiver.commit_accept(0, seq));
                    }
                }
            }
            receiver.flush_owed_ack(0);
            for (_, f) in receiver.drain_outbox() {
                sender.on_frame(1, f);
            }
        }

        // Reliable drain to quiescence.
        for _ in 0..1024 {
            if !sender.has_outstanding() {
                break;
            }
            sender.tick();
            for (_, f) in sender.drain_outbox() {
                if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f) {
                    accepted_total += payload[0] as u64;
                    receiver_log.push(receiver.commit_accept(0, seq));
                }
            }
            receiver.flush_owed_ack(0);
            for (_, f) in receiver.drain_outbox() {
                sender.on_frame(1, f);
            }
        }
        prop_assert!(!sender.has_outstanding());
        prop_assert_eq!(accepted_total, created_total);
    }

    /// Datagram-granularity adversary: the unit of loss, duplication,
    /// and reordering is the *datagram* (one encoded frame batch), not
    /// the frame. Whatever the schedule, the receiver must accept each
    /// Vm exactly once, in dense per-channel FIFO order, and every fresh
    /// acceptance must land inside the oracle window `(acked, created]`
    /// of the sender's channel state.
    #[test]
    fn datagram_adversary_preserves_fifo_and_window(
        steps in proptest::collection::vec(dgram_step_strategy(), 1..100),
    ) {
        let cfg = VmConfig { window: 4, eager_acks: true };
        let mut sender = VmEndpoint::new(0, cfg);
        let mut receiver = VmEndpoint::new(1, cfg);
        // The wire: each element is one transmitted datagram.
        let mut to_receiver: Vec<WireDatagram> = Vec::new();
        let mut to_sender: Vec<WireDatagram> = Vec::new();
        // created/accepted value totals and the FIFO/window oracle.
        let mut tally = Tally::default();

        // Drain one side's queued traffic onto the wire as datagrams.
        fn drain(ep: &mut VmEndpoint, expect_to: usize, wire: &mut Vec<WireDatagram>) {
            let mut dgrams = Vec::new();
            ep.drain_datagrams_into(&mut dgrams, |_, _| {});
            for (to, wd) in dgrams {
                assert_eq!(to, expect_to);
                wire.push(wd);
            }
        }

        // Deliver one datagram into an endpoint; returns its frames.
        fn unpack(ep: &mut VmEndpoint, wd: &WireDatagram) -> Vec<Frame> {
            let d = wd.decode();
            assert_ne!(d.id, 0, "datagrams get real ids");
            ep.begin_datagram(d.id);
            d.frames
        }

        let run = |step: &DStep,
                   sender: &mut VmEndpoint,
                   receiver: &mut VmEndpoint,
                   to_receiver: &mut Vec<WireDatagram>,
                   to_sender: &mut Vec<WireDatagram>,
                   t: &mut Tally| {
            match step {
                DStep::Create(amount) => {
                    let _op = sender.create(1, Bytes::from(vec![*amount]));
                    t.created_total += *amount as u64;
                    t.created_count += 1;
                }
                DStep::Tick => sender.tick(),
                DStep::FlushData => drain(sender, 1, to_receiver),
                DStep::FlushAcks => {
                    // The receiver's flush boundary: owed acks go standalone.
                    receiver.flush_owed_ack(0);
                    drain(receiver, 0, to_sender);
                }
                DStep::DeliverData { n, drop_mask, dup_mask, from_back } => {
                    for k in 0..(*n as usize) {
                        if to_receiver.is_empty() { break; }
                        // Reorder by taking from either end of the wire.
                        let unit = if *from_back & (1 << (k % 8)) != 0 {
                            to_receiver.pop().unwrap()
                        } else {
                            to_receiver.remove(0)
                        };
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue; // the whole datagram is lost
                        }
                        let copies = if dup_mask & (1 << (k % 8)) != 0 { 2 } else { 1 };
                        for _ in 0..copies {
                            for f in unpack(receiver, &unit) {
                                if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f) {
                                    // Per-channel FIFO: dense, in order,
                                    // exactly once.
                                    assert_eq!(seq, t.last_accepted + 1,
                                        "fresh acceptance out of FIFO order");
                                    // Oracle window (acked, created].
                                    assert!(seq <= t.created_count,
                                        "accepted a seq never created");
                                    t.last_accepted = seq;
                                    t.accepted_total += payload[0] as u64;
                                    receiver.commit_accept(0, seq);
                                }
                            }
                        }
                    }
                }
                DStep::DeliverAcks { n, drop_mask } => {
                    for k in 0..(*n as usize) {
                        if to_sender.is_empty() { break; }
                        let unit = to_sender.remove(0);
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue;
                        }
                        for f in unpack(sender, &unit) {
                            // Acks carried by the frame must never exceed
                            // what the receiver durably accepted.
                            assert!(f.ack() <= t.last_accepted, "ack beyond acceptance");
                            sender.on_frame(1, f);
                        }
                    }
                }
            }
        };

        for step in &steps {
            run(step, &mut sender, &mut receiver, &mut to_receiver, &mut to_sender, &mut tally);
        }
        prop_assert!(tally.accepted_total <= tally.created_total);

        // Reliable drain to quiescence: two ticks per round (the
        // retransmit gate gives freshly sent frames one tick of grace).
        for _ in 0..2048 {
            if !sender.has_outstanding() && to_receiver.is_empty() && to_sender.is_empty() {
                break;
            }
            for s in [
                DStep::Tick,
                DStep::Tick,
                DStep::FlushData,
                DStep::DeliverData { n: 16, drop_mask: 0, dup_mask: 0, from_back: 0 },
                DStep::FlushAcks,
                DStep::DeliverAcks { n: 16, drop_mask: 0 },
            ] {
                run(&s, &mut sender, &mut receiver, &mut to_receiver, &mut to_sender, &mut tally);
            }
        }
        prop_assert!(!sender.has_outstanding(), "all Vms must complete");
        prop_assert_eq!(tally.accepted_total, tally.created_total,
            "exactly-once acceptance of every created amount");
        prop_assert_eq!(sender.stats().created, receiver.stats().accepted);
        if tally.created_count > 0 {
            prop_assert!(sender.stats().datagrams_sent > 0);
        }
    }
}

/// Running oracle for the datagram adversary test.
#[derive(Default)]
struct Tally {
    created_total: u64,
    accepted_total: u64,
    /// Vms created on the 0→1 channel (the upper window bound).
    created_count: u64,
    /// Last seq accepted fresh (the FIFO cursor and lower ack bound).
    last_accepted: u64,
}

/// One adversarial step at datagram granularity.
#[derive(Clone, Debug)]
enum DStep {
    /// Sender mints a Vm carrying `amount`.
    Create(u8),
    /// Sender retransmission timer fires.
    Tick,
    /// Sender's flush boundary: queued frames leave as datagrams.
    FlushData,
    /// Receiver's flush boundary, owed acks included.
    FlushAcks,
    /// Deliver up to `n` data units, dropping/duplicating/reordering
    /// whole datagrams by mask bits.
    DeliverData {
        n: u8,
        drop_mask: u8,
        dup_mask: u8,
        from_back: u8,
    },
    /// Deliver up to `n` ack units toward the sender, with loss.
    DeliverAcks { n: u8, drop_mask: u8 },
}

fn dgram_step_strategy() -> impl Strategy<Value = DStep> {
    prop_oneof![
        (1u8..20).prop_map(DStep::Create),
        Just(DStep::Tick),
        Just(DStep::FlushData),
        Just(DStep::FlushAcks),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(n, drop_mask, dup_mask, from_back)| DStep::DeliverData {
                n: n % 8,
                drop_mask,
                dup_mask,
                from_back,
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(n, drop_mask)| DStep::DeliverAcks {
            n: n % 8,
            drop_mask
        }),
    ]
}
