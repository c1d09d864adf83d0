//! Property-based tests of the simulated network's delivery invariants, on
//! the in-repo `amnesia-testkit` harness.

use amnesia_net::{LatencyModel, LinkProfile, SimDuration, SimNet};
use amnesia_testkit::{for_all, require, require_eq, Gen};

const CASES: u32 = 64;

/// Builds a clique of `n` endpoints with the given latency model.
fn clique(n: usize, seed: u64, latency: LatencyModel, drop: f64) -> (SimNet, Vec<String>) {
    let mut net = SimNet::new(seed);
    let names: Vec<String> = (0..n).map(|i| format!("node{i}")).collect();
    for name in &names {
        net.register(name);
    }
    for a in &names {
        for b in &names {
            if a != b {
                net.connect(
                    a,
                    b,
                    LinkProfile::new(latency.clone()).with_drop_probability(drop),
                );
            }
        }
    }
    (net, names)
}

/// Conservation: every sent frame is delivered exactly once or counted as
/// dropped; nothing is duplicated or lost silently.
#[test]
fn frames_conserved() {
    for_all("frames conserved", CASES, |g: &mut Gen| {
        let seed = g.next_u64();
        let n = g.usize_in(2, 4);
        let send_count = g.usize_in(1, 39);
        let drop = g.f64_in(0.0, 0.5);
        let (mut net, names) = clique(n, seed, LatencyModel::normal_ms(25.0, 12.0, 1.0), drop);
        let mut sent = 0u64;
        for _ in 0..send_count {
            let a = g.next_u8() as usize % n;
            let b = g.next_u8() as usize % n;
            let payload_len = g.usize_in(0, 15);
            let payload = g.bytes(payload_len);
            let (from, to) = (&names[a], &names[b]);
            if from != to {
                net.send(from, to, payload).unwrap();
                sent += 1;
            }
        }
        let frames: Vec<_> = std::iter::from_fn(|| net.step()).collect();
        require_eq!(frames.len() as u64 + net.dropped_count(), sent);
        require!(
            frames
                .iter()
                .all(|f| names.iter().any(|name| name == net.name(f.to))),
            "frame delivered to an unregistered endpoint"
        );
        require_eq!(net.pending_count(), 0);
        Ok(())
    });
}

/// Causality and monotonicity: deliveries happen at non-decreasing times,
/// each no earlier than its send time.
#[test]
fn delivery_times_are_causal() {
    for_all("delivery times are causal", CASES, |g: &mut Gen| {
        let seed = g.next_u64();
        let count = g.usize_in(1, 29);
        let (mut net, names) = clique(3, seed, LatencyModel::normal_ms(20.0, 10.0, 0.5), 0.0);
        for i in 0..count {
            let from = &names[i % 3];
            let to = &names[(i + 1) % 3];
            net.send(from, to, vec![i as u8]).unwrap();
        }
        let mut last = net.now();
        while let Some(frame) = net.step() {
            require!(frame.delivered_at >= frame.sent_at, "delivered before sent");
            require!(frame.delivered_at >= last, "clock went backwards");
            require_eq!(frame.delivered_at, net.now());
            last = frame.delivered_at;
        }
        Ok(())
    });
}

/// Wiretaps observe every frame on their link — including dropped ones —
/// and only frames on their link.
#[test]
fn wiretap_completeness() {
    for_all("wiretap completeness", CASES, |g: &mut Gen| {
        let seed = g.next_u64();
        let payload_count = g.usize_in(1, 19);
        let drop = g.f64_in(0.0, 1.0);
        let payloads: Vec<Vec<u8>> = (0..payload_count)
            .map(|_| {
                let len = g.usize_in(0, 7);
                g.bytes(len)
            })
            .collect();
        let (mut net, names) = clique(3, seed, LatencyModel::constant_ms(1.0), drop);
        let tap01 = net.tap(&names[0], &names[1]).unwrap();
        for p in &payloads {
            net.send(&names[0], &names[1], p.clone()).unwrap();
            net.send(&names[1], &names[2], p.clone()).unwrap();
        }
        require_eq!(tap01.len(), payloads.len());
        for (record, expected) in tap01.records().iter().zip(&payloads) {
            require_eq!(&record.payload, expected);
            require_eq!(&record.from, &names[0]);
        }
        Ok(())
    });
}

/// Determinism: identical seeds and send sequences produce identical
/// delivery schedules even with stochastic latency and loss.
#[test]
fn schedules_deterministic() {
    for_all("schedules deterministic", CASES, |g: &mut Gen| {
        let seed = g.next_u64();
        let count = g.usize_in(1, 19);
        let run = |seed: u64| {
            let (mut net, names) = clique(2, seed, LatencyModel::normal_ms(8.0, 6.0, 0.5), 0.2);
            let mut times = Vec::new();
            for i in 0..count {
                let r = net
                    .send(&names[0], &names[1], vec![i as u8])
                    .unwrap()
                    .map(|t| t.as_micros());
                times.push(r);
            }
            times
        };
        require_eq!(run(seed), run(seed));
        Ok(())
    });
}

/// The name-taking API and the id path are one path: for a random topology
/// (sparse links, lossy and jittered, some tapped) the same sends made by
/// name (`send`) and by id (`transmit` with no delay), interleaved with the
/// same deliveries, produce the same results, the same delivered frames
/// (endpoints, payloads, send and delivery times), the same wiretap
/// records and the same drop count.
#[test]
fn name_and_id_sends_agree() {
    for_all("name and id sends agree", CASES, |g: &mut Gen| {
        let seed = g.next_u64();
        let n = g.usize_in(2, 6);
        let drop = g.f64_in(0.0, 0.4);
        // Each ordered pair is linked with probability 2/3 and a link is
        // tapped with probability 1/4.
        let mut links: Vec<(usize, usize, bool)> = Vec::new();
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                let (linked, tapped) = (
                    !g.next_u8().is_multiple_of(3),
                    g.next_u8().is_multiple_of(4),
                );
                if linked {
                    links.push((a, b, tapped));
                }
            }
        }
        let sends: Vec<(usize, usize, Vec<u8>, bool)> = (0..g.usize_in(1, 40))
            .map(|_| {
                let len = g.usize_in(0, 9);
                (
                    g.usize_in(0, n - 1),
                    g.usize_in(0, n - 1),
                    g.bytes(len),
                    g.next_u8().is_multiple_of(2),
                )
            })
            .collect();

        // Builds the topology on a fresh network and replays `sends`,
        // either by name or by id; returns everything observable.
        let run = |by_id: bool| {
            let mut net = SimNet::new(seed);
            let names: Vec<String> = (0..n).map(|i| format!("node{i}")).collect();
            let ids: Vec<_> = names.iter().map(|name| net.register(name)).collect();
            let mut taps = Vec::new();
            for &(a, b, tapped) in &links {
                let profile = LinkProfile::new(LatencyModel::normal_ms(20.0, 10.0, 1.0))
                    .with_drop_probability(drop);
                net.connect(&names[a], &names[b], profile);
                if tapped {
                    taps.push(net.tap(&names[a], &names[b]).unwrap());
                }
            }
            let mut results = Vec::new();
            let mut delivered = Vec::new();
            let observe = |net: &mut SimNet| {
                net.step().map(|f| {
                    (
                        net.name(f.from).to_string(),
                        net.name(f.to).to_string(),
                        f.payload,
                        f.sent_at,
                        f.delivered_at,
                    )
                })
            };
            for (a, b, payload, step) in &sends {
                results.push(if by_id {
                    net.transmit(ids[*a], ids[*b], payload.clone(), SimDuration::ZERO)
                } else {
                    net.send(&names[*a], &names[*b], payload.clone())
                });
                if *step {
                    delivered.extend(observe(&mut net));
                }
            }
            delivered.extend(std::iter::from_fn(|| observe(&mut net)));
            let records: Vec<_> = taps.iter().map(|tap| tap.records()).collect();
            (results, delivered, records, net.dropped_count())
        };

        let (by_name, by_id) = (run(false), run(true));
        require_eq!(by_name.0, by_id.0);
        require_eq!(by_name.1, by_id.1);
        require_eq!(by_name.2, by_id.2);
        require_eq!(by_name.3, by_id.3);
        Ok(())
    });
}
