//! Deterministic discrete-event transport.
//!
//! [`SimNet`] owns every node's [`NodeState`], delivers messages
//! through an [`EventQueue`] with per-link latencies, and exposes the
//! two *drivers* experiments need:
//!
//! * [`SimNet::lookup`] — injects a hierarchical `FindSucc` at a node's
//!   lowest layer and runs the queue until the owner answers.
//! * [`SimNet::join`] — executes the full §3.3 join choreography for a
//!   new node, counting every message.
//!
//! Drivers consume the response messages (`FoundSucc`, `PredIs`, …)
//! addressed to the node they orchestrate; everything else flows
//! through [`NodeState::handle`].

use crate::des::EventQueue;
use crate::state::states_from_oracle;
use crate::{LayerState, NodeState, Payload};
use hieras_core::{HierasConfig, HierasOracle, LandmarkOrder};
use hieras_id::{Id, Key};
use hieras_obs::{Registry, Tracer};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Message-traffic totals. The per-kind split is the registry's
/// `net.deliver.*` counters ([`SimNet::enable_registry`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total messages delivered.
    pub total: u64,
    /// Sends whose destination was dead and that cost the sender an
    /// RTO (routed messages, plus driver RPCs against dead peers).
    pub timeouts: u64,
    /// Messages silently discarded: non-routed messages to dead nodes
    /// and routed messages whose hop count exceeded the TTL.
    pub drops: u64,
}

/// Result of one message-driven lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The key's owner.
    pub owner: Id,
    /// Routing hops (FindSucc forwardings).
    pub hops: u32,
    /// Simulated time from injection until the owner answered, ms.
    pub latency_ms: u64,
}

/// Result of a [`SimNet::try_lookup`] under churn: the attempt may
/// fail (every retry lost to dead nodes) and latency includes the
/// timeouts and backoffs spent getting an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetriedLookup {
    /// The successful resolution, if any attempt got through.
    pub outcome: Option<LookupOutcome>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// Result of one §3.3 join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Messages exchanged on behalf of this join.
    pub messages: u64,
    /// Simulated wall-clock duration of the join, ms.
    pub duration_ms: u64,
    /// Rings joined (= hierarchy depth).
    pub rings_joined: usize,
    /// How many rings this node *founded* (was first member of).
    pub rings_founded: usize,
}

/// Retransmission timeout: how long a sender waits before declaring
/// a message's destination dead, ms — what every RPC against a dead
/// node costs.
const RTO_MS: u64 = 250;
/// Hop budget for routed messages; exceeding it drops the message
/// (bounds transient routing loops while pointers heal).
const TTL: u32 = 96;

/// A message in flight.
struct Envelope {
    from: Id,
    to: Id,
    msg: Payload,
}

/// A deterministic, single-threaded message-passing HIERAS network.
///
/// The lifetime parameter lets the delay function borrow experiment
/// state (e.g. a latency oracle) instead of owning it.
pub struct SimNet<'a> {
    nodes: HashMap<Id, NodeState>,
    /// Link latency between two nodes, ms.
    delay: Box<dyn Fn(Id, Id) -> u64 + 'a>,
    queue: EventQueue<Envelope>,
    next_req: u64,
    stats: TrafficStats,
    config: HierasConfig,
    /// Optional per-message-type counter / latency-histogram registry.
    /// `None` (the default) costs one branch per message.
    registry: Option<Box<Registry>>,
    /// Optional structured event sink: per-lookup and per-join spans,
    /// per-hop instants. `None` (the default) costs one branch.
    tracer: Option<Box<Tracer>>,
}

impl<'a> SimNet<'a> {
    /// Bootstraps a consistent network from a built oracle (every node
    /// starts with exact successors, predecessors and fingers — a
    /// stabilized system).
    #[must_use]
    pub fn from_oracle(
        oracle: &HierasOracle,
        landmarks: &[u32],
        delay: impl Fn(Id, Id) -> u64 + 'a,
    ) -> Self {
        let states = states_from_oracle(oracle, landmarks);
        let nodes = states.into_iter().map(|s| (s.id, s)).collect();
        SimNet {
            nodes,
            delay: Box::new(delay),
            queue: EventQueue::new(),
            next_req: 0,
            stats: TrafficStats::default(),
            config: oracle.config().clone(),
            registry: None,
            tracer: None,
        }
    }

    /// Turns on the metric registry: per-message-type
    /// `net.send.*` / `net.deliver.*` counters, `net.drop.*` /
    /// `net.timeout` totals, and `lookup.*` / `join.*` histograms.
    pub fn enable_registry(&mut self) {
        if self.registry.is_none() {
            self.registry = Some(Box::default());
        }
    }

    /// Installs a structured event tracer (replacing any previous one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// The registry, if enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_deref()
    }

    /// Mutable registry access for drivers layering their own counters
    /// (e.g. the churn engine's per-event accounting).
    pub fn registry_mut(&mut self) -> Option<&mut Registry> {
        self.registry.as_deref_mut()
    }

    /// Mutable tracer access for drivers opening their own spans.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Removes and returns the registry.
    pub fn take_registry(&mut self) -> Option<Registry> {
        self.registry.take().map(|b| *b)
    }

    /// Removes and returns the tracer.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(|b| *b)
    }

    /// The hierarchy configuration this network was built with.
    #[must_use]
    pub fn config(&self) -> &HierasConfig {
        &self.config
    }

    /// True if `id` is currently a member (has not left or failed).
    #[must_use]
    pub fn alive(&self, id: Id) -> bool {
        self.nodes.contains_key(&id)
    }

    /// All current member ids, ascending — the deterministic iteration
    /// order every maintenance driver uses.
    #[must_use]
    pub fn sorted_ids(&self) -> Vec<Id> {
        let mut ids: Vec<Id> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Traffic counters.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Immutable view of a node's state (tests, diagnostics).
    #[must_use]
    pub fn node(&self, id: Id) -> Option<&NodeState> {
        self.nodes.get(&id)
    }

    /// Current simulated time (ms).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.queue.now()
    }

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn post(&mut self, from: Id, to: Id, msg: Payload) {
        if let Some(r) = self.registry.as_deref_mut() {
            r.inc(msg.send_counter());
        }
        let d = if from == to { 0 } else { (self.delay)(from, to) };
        self.queue.schedule_in(d, Envelope { from, to, msg });
    }

    /// Delivers one popped message: normal handling when the
    /// destination is alive (routed messages over the TTL are
    /// dropped); a routed payload to a dead node becomes a
    /// [`Payload::Timeout`] fired back at the sender one RTO later;
    /// anything else to a dead node is silently dropped.
    fn deliver(&mut self, env: Envelope) {
        let Envelope { from, to, msg } = env;
        if self.nodes.contains_key(&to) {
            if let Payload::FindSucc { hops, layer, .. }
            | Payload::FindRingSucc { hops, layer, .. } = msg
            {
                if hops >= TTL {
                    self.stats.drops += 1;
                    if let Some(r) = self.registry.as_deref_mut() {
                        r.inc("net.drop.ttl");
                    }
                    return;
                }
                // Each delivered routed message is one step of a lookup
                // chain: the layer field exposes ring transitions, the
                // hops field the chain position.
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.instant(self.queue.now(), "hop", &[
                        ("layer", u64::from(layer)),
                        ("hops", u64::from(hops)),
                        ("at", to.raw()),
                    ]);
                }
            }
            let node = self.nodes.get_mut(&to).expect("checked above");
            for (dest, out) in node.handle(from, msg) {
                self.post(to, dest, out);
            }
        } else if msg.is_routed() && from != to && self.nodes.contains_key(&from) {
            self.stats.timeouts += 1;
            if let Some(r) = self.registry.as_deref_mut() {
                r.inc("net.timeout");
            }
            let timeout = Payload::Timeout { dead: to, original: Box::new(msg) };
            // Self-addressed so the sender's handler scrubs and
            // reroutes; delay = RTO, not the link latency.
            self.queue.schedule_in(RTO_MS, Envelope { from, to: from, msg: timeout });
        } else {
            self.stats.drops += 1;
            if let Some(r) = self.registry.as_deref_mut() {
                r.inc("net.drop.dead");
            }
        }
    }

    /// Pops the next message off the queue and counts its delivery
    /// (`total` and `net.deliver.<kind>`); `None` once the queue is
    /// empty.
    fn pop_counted(&mut self) -> Option<(u64, Envelope)> {
        let (at, env) = self.queue.pop()?;
        self.stats.total += 1;
        if let Some(r) = self.registry.as_deref_mut() {
            r.inc(env.msg.deliver_counter());
        }
        Some((at, env))
    }

    /// Runs the queue until a message matching `stop` arrives at
    /// `watch_node` (that message is consumed and returned), or the
    /// queue drains (returns `None`).
    fn run_until(
        &mut self,
        watch_node: Id,
        stop: impl Fn(&Payload) -> bool,
    ) -> Option<(Id, Payload, u64)> {
        while let Some((at, env)) = self.pop_counted() {
            if env.to == watch_node && stop(&env.msg) {
                return Some((env.from, env.msg, at));
            }
            self.deliver(env);
        }
        None
    }

    /// Message-driven hierarchical lookup from `origin` (§3.2): one
    /// [`SimNet::try_lookup`] attempt that must get through.
    ///
    /// # Panics
    /// Panics if `origin` is not a member or the network loses the
    /// request (a protocol bug, surfaced loudly).
    #[must_use]
    pub fn lookup(&mut self, origin: Id, key: Key) -> LookupOutcome {
        self.try_lookup(origin, key, 1, 0).outcome.expect("lookup lost in the network")
    }

    /// Folds a finished lookup into the obs sinks: closes its span
    /// (fields reconcile with the aggregate metrics) and records the
    /// registry histograms. `retry_wait_ms` is the simulated time the
    /// lookup spent on attempts that died in the network (lost
    /// forwarding chains plus backoff) before the answering attempt
    /// was injected — the timeout-inflation share of `latency_ms`.
    fn record_lookup(
        &mut self,
        span: Option<u64>,
        out: &LookupOutcome,
        attempts: u32,
        retry_wait_ms: u64,
    ) {
        let now = self.queue.now();
        if let Some(t) = self.tracer.as_deref_mut() {
            if let Some(span) = span {
                t.close(now, span, &[
                    ("owner", out.owner.raw()),
                    ("hops", u64::from(out.hops)),
                    ("latency_ms", out.latency_ms),
                    ("attempts", u64::from(attempts)),
                ]);
            }
        }
        if let Some(r) = self.registry.as_deref_mut() {
            r.inc("lookup.count");
            r.observe("lookup.hops", u64::from(out.hops));
            r.observe("lookup.latency_ms", out.latency_ms);
            if attempts > 1 {
                r.inc_by("lookup.retries", u64::from(attempts - 1));
                // A histogram, not just a counter: the tail of this
                // distribution is what separates "retried once, cheap"
                // from "burned the whole attempt budget" when live-mode
                // latency tails inflate under churn.
                r.observe("lookup.retry_wait_ms", retry_wait_ms);
            }
        }
    }

    /// Lookup with the churn-era failure path: each attempt that dies
    /// in the network (TTL drop, or a timeout chain that hit another
    /// dead node) costs `backoff_ms` of simulated time before the next
    /// try. Latency is measured from the *first* injection, so RTOs
    /// and backoffs inflate it — the metric the churn experiments
    /// report.
    ///
    /// # Panics
    /// Panics if `origin` is not a live member or `max_attempts == 0`.
    pub fn try_lookup(
        &mut self,
        origin: Id,
        key: Key,
        max_attempts: u32,
        backoff_ms: u64,
    ) -> RetriedLookup {
        assert!(max_attempts > 0, "need at least one attempt");
        let depth = self.nodes.get(&origin).expect("origin must exist").depth() as u8;
        let start = self.queue.now();
        let span = self.tracer.as_deref_mut().map(|t| {
            t.open(start, "lookup", &[
                ("origin", origin.raw()),
                ("key", key.raw()),
                ("start_layer", u64::from(depth)),
            ])
        });
        for attempt in 1..=max_attempts {
            // Time burned by earlier attempts that died in the network:
            // everything between the first injection and this attempt's
            // start is retry-attributable latency.
            let retry_wait_ms = self.queue.now() - start;
            let req = self.fresh_req();
            self.post(origin, origin, Payload::FindSucc {
                key,
                layer: depth,
                origin,
                req,
                hops: 0,
            });
            let reply = self.run_until(origin, |m| {
                matches!(m, Payload::FoundSucc { req: r, .. } if *r == req)
            });
            match reply {
                Some((_, Payload::FoundSucc { owner, hops, .. }, at)) => {
                    // The routing latency the paper measures is the
                    // chain of FindSucc forwardings; subtract the
                    // owner's direct response leg (owner == origin ⇔
                    // zero hops, no leg).
                    let response_leg =
                        if owner == origin { 0 } else { (self.delay)(owner, origin) };
                    let out = LookupOutcome {
                        owner,
                        hops,
                        latency_ms: (at - start).saturating_sub(response_leg),
                    };
                    self.record_lookup(span, &out, attempt, retry_wait_ms);
                    return RetriedLookup { outcome: Some(out), attempts: attempt };
                }
                _ => {
                    // Lost: wait out the backoff, then retry against the
                    // (hopefully scrubbed) tables.
                    if let Some(t) = self.tracer.as_deref_mut() {
                        t.instant(self.queue.now(), "retry", &[("attempt", u64::from(attempt))]);
                    }
                    let t = self.queue.now() + backoff_ms;
                    self.queue.advance_to(t);
                }
            }
        }
        let now = self.queue.now();
        if let Some(t) = self.tracer.as_deref_mut() {
            if let Some(span) = span {
                t.close(now, span, &[
                    ("unresolved", 1),
                    ("attempts", u64::from(max_attempts)),
                ]);
            }
        }
        if let Some(r) = self.registry.as_deref_mut() {
            r.inc("lookup.unresolved");
            r.inc_by("lookup.retries", u64::from(max_attempts - 1));
            // An unresolved lookup burned its entire elapsed time on
            // retries — record it so the histogram's tail covers the
            // worst case, not only the lookups that eventually won.
            r.observe("lookup.retry_wait_ms", now - start);
        }
        RetriedLookup { outcome: None, attempts: max_attempts }
    }

    /// RPC helper for drivers: send `msg` to `to` on behalf of
    /// `driver`, then run until the matching reply arrives back.
    /// `None` when the reply is lost (dead peer, TTL drop) — the
    /// queue has drained by then.
    fn try_rpc(
        &mut self,
        driver: Id,
        to: Id,
        msg: Payload,
        matches: impl Fn(&Payload) -> bool,
    ) -> Option<Payload> {
        self.post(driver, to, msg);
        self.run_until(driver, matches).map(|(_, reply, _)| reply)
    }

    /// Resolves the ring-local owner of `key` in `layer` by routing
    /// from `via` (an existing ring member) — the "ordinary Chord
    /// routing procedure" §3.3 uses for join-time successors and
    /// ring-table requests. Driver-initiated, so usable before the
    /// driver has joined. `None` when the request died in the network
    /// (only possible under churn).
    fn resolve_via(&mut self, driver: Id, via: Id, key: Key, layer: u8) -> Option<(Id, u32)> {
        let req = self.fresh_req();
        let msg = Payload::FindRingSucc { key, layer, origin: driver, req, hops: 0 };
        let reply = self.try_rpc(driver, via, msg, |m| {
            matches!(m, Payload::FoundSucc { req: r, .. } if *r == req)
        })?;
        match reply {
            Payload::FoundSucc { owner, hops, .. } => Some((owner, hops)),
            _ => unreachable!(),
        }
    }

    /// Executes the §3.3 join choreography for a new node.
    ///
    /// `bootstrap` is the nearby member n′; `rtts` are the newcomer's
    /// measured RTTs to the landmark set (the ping phase happens
    /// outside the overlay). Steps, each a real message exchange:
    ///
    /// 1. fetch the landmark table from n′;
    /// 2. bin locally → landmark order → ring names per layer;
    /// 3. resolve the layer-1 successor through n′ and splice into the
    ///    global ring (GetPred / Notify / UpdateSucc);
    /// 4. for each lower layer: route a ring-table request to the
    ///    holder, fetch the table, enter through a recorded member,
    ///    splice into the ring, copy the entry point's finger table as
    ///    the initial approximation, and send the ring-table
    ///    modification message if the newcomer's id belongs in the
    ///    table (founding the ring if it did not exist).
    ///
    /// # Panics
    /// Panics if `new_id` already exists, `bootstrap` does not, or the
    /// join's messages are lost (impossible in a churn-free network).
    pub fn join(&mut self, new_id: Id, bootstrap: Id, rtts: &[u16]) -> JoinOutcome {
        self.try_join(new_id, bootstrap, rtts).expect("join lost in the network")
    }

    /// Churn-safe [`SimNet::join`]: returns `None` when one of the
    /// choreography's exchanges dies in the network (the caller
    /// retries later through another bootstrap; pointers half-spliced
    /// by the aborted attempt heal through timeouts and stabilization).
    ///
    /// # Panics
    /// Panics if `new_id` already exists or `bootstrap` does not.
    pub fn try_join(&mut self, new_id: Id, bootstrap: Id, rtts: &[u16]) -> Option<JoinOutcome> {
        let start = self.queue.now();
        let span = self.tracer.as_deref_mut().map(|t| {
            t.open(start, "join", &[("node", new_id.raw()), ("bootstrap", bootstrap.raw())])
        });
        let outcome = self.try_join_inner(new_id, bootstrap, rtts);
        let now = self.queue.now();
        if let Some(t) = self.tracer.as_deref_mut() {
            if let Some(span) = span {
                match &outcome {
                    Some(o) => t.close(now, span, &[
                        ("messages", o.messages),
                        ("duration_ms", o.duration_ms),
                        ("rings_founded", o.rings_founded as u64),
                    ]),
                    None => t.close(now, span, &[("abort", 1)]),
                }
            }
        }
        if let Some(r) = self.registry.as_deref_mut() {
            match &outcome {
                Some(o) => {
                    r.inc("join.count");
                    r.observe("join.messages", o.messages);
                    r.observe("join.duration_ms", o.duration_ms);
                }
                None => r.inc("join.abort"),
            }
        }
        outcome
    }

    /// The §3.3 choreography proper; split out so [`SimNet::try_join`]
    /// can close its span on every early-exit path.
    fn try_join_inner(&mut self, new_id: Id, bootstrap: Id, rtts: &[u16]) -> Option<JoinOutcome> {
        assert!(!self.nodes.contains_key(&new_id), "node already joined");
        assert!(self.nodes.contains_key(&bootstrap), "bootstrap unknown");
        let start_total = self.stats.total;
        let start_time = self.queue.now();
        let space = self.nodes[&bootstrap].space;
        let bits = space.bits();
        let depth = self.config.depth;

        // Step 1: landmark table from n'.
        let req = self.fresh_req();
        let reply = self.try_rpc(new_id, bootstrap, Payload::GetLandmarks { req }, |m| {
            matches!(m, Payload::LandmarksAre { req: r, .. } if *r == req)
        })?;
        let landmarks = match reply {
            Payload::LandmarksAre { landmarks, .. } => landmarks,
            _ => unreachable!(),
        };

        // Step 2: bin locally.
        let order = self.config.binning.order(rtts);
        let mut layers: Vec<LayerState> = Vec::with_capacity(depth);
        let mut founded = 0usize;

        // Step 3: global ring (layer 1) through n'.
        let (g_succ, _) = self.resolve_via(new_id, bootstrap, new_id, 1)?;
        let global = self.config.ring_key(1, &order);
        layers.push(self.splice_layer(new_id, 1, global, g_succ, bits)?);

        // Step 4: lower layers.
        for layer_no in 2..=depth as u8 {
            let ring_name = self.config.ring_key(usize::from(layer_no), &order);
            let (ls, was_founded) =
                self.join_lower_layer(new_id, layer_no, ring_name, bootstrap, bits)?;
            founded += usize::from(was_founded);
            layers.push(ls);
        }

        self.nodes.insert(
            new_id,
            NodeState {
                id: new_id,
                space,
                layers,
                ring_tables: BTreeMap::new(),
                landmarks,
                suspects: HashSet::new(),
            },
        );
        Some(JoinOutcome {
            messages: self.stats.total - start_total,
            duration_ms: self.queue.now() - start_time,
            rings_joined: depth,
            rings_founded: founded,
        })
    }

    /// The §3.3 lower-layer entry sequence, shared by joins and
    /// re-binning: route the ring-table request to the holder over the
    /// global ring, enter through a recorded live member (splice +
    /// finger copy) or found the ring, then send the ring-table
    /// modification message. Returns the built layer state and whether
    /// the ring was founded.
    fn join_lower_layer(
        &mut self,
        node: Id,
        layer_no: u8,
        ring_name: LandmarkOrder,
        via: Id,
        bits: u32,
    ) -> Option<(LayerState, bool)> {
        let (holder, _) = self.resolve_via(node, via, ring_name.ring_id(), 1)?;
        let req = self.fresh_req();
        let reply = self.try_rpc(node, holder, Payload::GetRingTable { ring_name, req }, |m| {
            matches!(m, Payload::RingTableIs { req: r, .. } if *r == req)
        })?;
        let table = match reply {
            Payload::RingTableIs { table, .. } => table,
            _ => unreachable!(),
        };
        // First *live* recorded member; dead entries are stale table
        // slots awaiting repair.
        let entry = table.as_ref().and_then(|t| {
            t.entry_points().iter().copied().find(|p| *p != node && self.nodes.contains_key(p))
        });
        let (ls, founded) = match entry {
            Some(p) => {
                // Resolve our in-ring successor through entry point p.
                let (succ, _) = self.resolve_via(node, p, node, layer_no)?;
                let mut ls = self.splice_layer(node, layer_no, ring_name, succ, bits)?;
                // Initial finger approximation: copy p's table (§3.3's
                // "p generates the finger table of n and sends it back").
                let req = self.fresh_req();
                let reply =
                    self.try_rpc(node, p, Payload::GetFingers { layer: layer_no, req }, |m| {
                        matches!(m, Payload::FingersAre { req: r, .. } if *r == req)
                    })?;
                if let Payload::FingersAre { fingers, .. } = reply {
                    ls.fingers = fingers;
                }
                (ls, false)
            }
            None => {
                // First member of this ring: found it.
                (LayerState::solo(ring_name, node, bits), true)
            }
        };
        // Ring-table modification message (§3.3) — also what creates
        // the table at the holder for a founded ring.
        self.post(node, holder, Payload::RingTableUpdate { ring_name, node });
        self.drain();
        Some((ls, founded))
    }

    /// Splices the joining node between `succ` and `succ`'s current
    /// predecessor in `layer`: GetPred(succ) → adopt pred →
    /// Notify(succ) → UpdateSucc(pred). Returns the new layer state,
    /// or `None` when `succ` died before answering.
    fn splice_layer(
        &mut self,
        new_id: Id,
        layer: u8,
        ring_name: LandmarkOrder,
        succ: Id,
        bits: u32,
    ) -> Option<LayerState> {
        if succ == new_id {
            return Some(LayerState::solo(ring_name, new_id, bits));
        }
        let req = self.fresh_req();
        let reply = self.try_rpc(new_id, succ, Payload::GetPred { layer, req }, |m| {
            matches!(m, Payload::PredIs { req: r, .. } if *r == req)
        })?;
        let pred = match reply {
            Payload::PredIs { pred, .. } => pred,
            _ => unreachable!(),
        };
        self.post(new_id, succ, Payload::Notify { layer });
        if let Some(p) = pred.filter(|&p| p != new_id && p != succ) {
            self.post(new_id, p, Payload::UpdateSucc { layer });
        }
        self.drain();
        Some(LayerState {
            ring_name,
            succ,
            // Until told otherwise we sit between succ's old pred and succ.
            pred: pred.or(Some(succ)),
            fingers: vec![None; bits as usize],
        })
    }

    /// Removes a node abruptly — a silent fail. No goodbye messages:
    /// the rest of the network discovers the death through RTO
    /// timeouts and failure-detection pings. Returns false if the node
    /// was already gone.
    pub fn fail_node(&mut self, id: Id) -> bool {
        self.nodes.remove(&id).is_some()
    }

    /// Graceful departure. The leaver patches its ring neighbours'
    /// pointers in every layer (`LeaveUpdate`), delists itself from
    /// each lower-layer ring table (`RingTableRemove` routed to the
    /// holder), hands any ring tables *it* holds to its global
    /// successor (`RingTableHandoff`) — then vanishes. Returns false
    /// if the node was already gone.
    pub fn leave_node(&mut self, id: Id) -> bool {
        let Some(state) = self.nodes.get(&id).cloned() else { return false };
        // Phase 1: neighbour pointer patches, all layers, fully
        // delivered before the table maintenance below routes anything
        // (so repair probes never re-learn the leaver).
        for (i, ls) in state.layers.iter().enumerate() {
            self.patch_neighbours(id, u8::try_from(i + 1).expect("depth fits u8"), ls);
        }
        self.drain();
        // Phase 2: delist from lower-layer ring tables while the
        // leaver can still route, and hand off held tables.
        for ls in state.layers.iter().skip(1) {
            self.delist(id, ls.ring_name);
        }
        let heir = state.layers[0].succ;
        if heir != id {
            for table in state.ring_tables.into_values() {
                self.post(id, heir, Payload::RingTableHandoff { table });
            }
        }
        self.drain();
        self.nodes.remove(&id);
        true
    }

    /// Posts `id`'s goodbye to its ring neighbours in `layer` (state
    /// `ls`): each learns its replacement pointer (`LeaveUpdate`). A
    /// solo ring has nobody to patch.
    fn patch_neighbours(&mut self, id: Id, layer: u8, ls: &LayerState) {
        if ls.succ == id {
            return;
        }
        let pred = ls.pred.filter(|&p| p != id);
        let patch = |new_succ, new_pred| Payload::LeaveUpdate { layer, new_succ, new_pred };
        if let Some(p) = pred {
            self.post(id, p, patch(Some(ls.succ), None));
        }
        self.post(id, ls.succ, patch(None, pred));
    }

    /// Routes a `RingTableRemove` for `id` to the holder of `ring`'s
    /// table (the global owner of its ring id), if the lookup gets
    /// through.
    fn delist(&mut self, id: Id, ring: LandmarkOrder) {
        if let Some((holder, _)) = self.resolve_via(id, id, ring.ring_id(), 1) {
            self.post(id, holder, Payload::RingTableRemove { ring_name: ring, node: id });
        }
    }

    /// One stabilization round over `layer`, members visited in
    /// ascending id order (the deterministic schedule). Each member
    /// scrubs dead successors (one RTO each), asks the live successor
    /// for its predecessor, adopts a closer live one, and notifies.
    pub fn stabilize_layer(&mut self, layer: u8) {
        for n in self.sorted_ids() {
            if self.nodes[&n].depth() < layer as usize {
                continue;
            }
            // A dead successor costs an RTO before it is scrubbed;
            // note_dead promotes the best alive finger.
            loop {
                let succ = self.nodes[&n].layer(layer).succ;
                if succ == n || self.nodes.contains_key(&succ) {
                    break;
                }
                self.stats.timeouts += 1;
                if let Some(r) = self.registry.as_deref_mut() {
                    r.inc("net.timeout");
                }
                let t = self.queue.now() + RTO_MS;
                self.queue.advance_to(t);
                self.nodes.get_mut(&n).expect("alive").note_dead(succ);
            }
            let succ = self.nodes[&n].layer(layer).succ;
            if succ == n {
                continue;
            }
            let req = self.fresh_req();
            let reply = self.try_rpc(n, succ, Payload::GetPred { layer, req }, |m| {
                matches!(m, Payload::PredIs { req: r, .. } if *r == req)
            });
            let Some(Payload::PredIs { pred, .. }) = reply else { continue };
            let space = self.nodes[&n].space;
            let target = match pred {
                Some(x) if x != n && self.nodes.contains_key(&x) && space.in_open(n, succ, x) => {
                    self.nodes.get_mut(&n).expect("alive").layer_mut(layer).succ = x;
                    x
                }
                _ => succ,
            };
            self.post(n, target, Payload::Notify { layer });
            self.drain();
        }
    }

    /// One failure-detection round over `layer`: every member pings
    /// its predecessor. A dead predecessor costs an RTO and is marked
    /// suspect; the pointer itself stays (stale but safe) until the
    /// next live claimant notifies.
    pub fn check_predecessors_layer(&mut self, layer: u8) {
        for n in self.sorted_ids() {
            if self.nodes[&n].depth() < layer as usize {
                continue;
            }
            let Some(p) = self.nodes[&n].layer(layer).pred.filter(|&p| p != n) else {
                continue;
            };
            if self.nodes.contains_key(&p) {
                let req = self.fresh_req();
                let _ = self.try_rpc(n, p, Payload::Ping { req }, |m| {
                    matches!(m, Payload::Pong { req: r } if *r == req)
                });
            } else {
                self.stats.timeouts += 1;
                if let Some(r) = self.registry.as_deref_mut() {
                    r.inc("net.timeout");
                }
                let t = self.queue.now() + RTO_MS;
                self.queue.advance_to(t);
                self.nodes.get_mut(&n).expect("alive").note_dead(p);
            }
        }
    }

    /// One fix-fingers round over `layer`: every member re-resolves
    /// finger index `round % bits` with a ring-confined lookup from
    /// itself. Dead fingers cost timeouts inside the lookup; a lost
    /// lookup leaves the entry for the next round.
    pub fn fix_fingers_layer(&mut self, layer: u8, round: u64) {
        for n in self.sorted_ids() {
            if self.nodes[&n].depth() < layer as usize {
                continue;
            }
            let space = self.nodes[&n].space;
            let i = (round % u64::from(space.bits())) as u32;
            let start = space.finger_start(n, i);
            let req = self.fresh_req();
            self.post(n, n, Payload::FindRingSucc { key: start, layer, origin: n, req, hops: 0 });
            let reply = self.run_until(n, |m| {
                matches!(m, Payload::FoundSucc { req: r, .. } if *r == req)
            });
            if let Some((_, Payload::FoundSucc { owner, .. }, _)) = reply {
                let ls = self.nodes.get_mut(&n).expect("alive").layer_mut(layer);
                ls.fingers[i as usize] = (owner != n).then_some(owner);
            }
        }
    }

    /// Landmark-loss recovery: re-bins `id` against freshly measured
    /// RTTs (a surviving/replacement landmark set) and moves it to the
    /// lower-layer rings the new bin names, leaving the old ones
    /// gracefully. Unchanged layers are untouched. Returns how many
    /// layers the node moved.
    pub fn rebin_node(&mut self, id: Id, rtts: &[u16]) -> usize {
        let Some(state) = self.nodes.get(&id) else { return 0 };
        let bits = state.space.bits();
        let depth = self.config.depth;
        let order = self.config.binning.order(rtts);
        let mut moved = 0usize;
        for layer_no in 2..=depth as u8 {
            let new_name = self.config.ring_key(usize::from(layer_no), &order);
            let old = self.nodes[&id].layer(layer_no).clone();
            if old.ring_name == new_name {
                continue;
            }
            // Leave the old ring: patch its neighbours, delist from its
            // table.
            self.patch_neighbours(id, layer_no, &old);
            self.drain();
            self.delist(id, old.ring_name);
            self.drain();
            // Join the new ring through ourselves — we still route over
            // the global ring.
            if let Some((ls, _)) = self.join_lower_layer(id, layer_no, new_name, id, bits) {
                *self.nodes.get_mut(&id).expect("alive").layer_mut(layer_no) = ls;
                moved += 1;
            }
        }
        moved
    }

    /// Delivers everything currently in flight.
    fn drain(&mut self) {
        while let Some((_, env)) = self.pop_counted() {
            self.deliver(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieras_core::{Binning, HierasConfig};
    use hieras_id::IdSpace;
    use std::sync::Arc;

    fn build(n: u64, depth: usize) -> (HierasOracle, Vec<Vec<u16>>) {
        let ids: Arc<[Id]> = (0..n)
            .map(|i| Id(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1)))
            .collect::<Vec<_>>()
            .into();
        let rtts: Vec<Vec<u16>> = (0..n)
            .map(|i| {
                vec![
                    if i % 2 == 0 { 5 } else { 150 },
                    if i % 4 < 2 { 10 } else { 130 },
                ]
            })
            .collect();
        let o = HierasOracle::from_rtts(
            IdSpace::full(),
            ids,
            &rtts,
            HierasConfig { depth, landmarks: 2, binning: Binning::paper() },
        )
        .unwrap();
        (o, rtts)
    }

    /// Link delay model for tests: cheap within a ring-mate pair,
    /// expensive otherwise — but any deterministic function works.
    fn delay(a: Id, b: Id) -> u64 {
        5 + (a.raw() ^ b.raw()) % 90
    }

    #[test]
    fn message_lookup_matches_oracle_hop_for_hop() {
        let (o, _) = build(40, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        for k in 0..120u64 {
            let key = Id(k.wrapping_mul(0x517c_c1b7_2722_0a95));
            let src = (k % 40) as u32;
            let oracle_trace = o.route(src, key);
            let got = net.lookup(o.id_of(src), key);
            assert_eq!(got.owner, o.id_of(oracle_trace.destination()), "key {k}");
            assert_eq!(got.hops as usize, oracle_trace.hop_count(), "key {k}");
        }
    }

    #[test]
    fn single_node_owns_all_keys() {
        let (o, _) = build(1, 1);
        let mut net = SimNet::from_oracle(&o, &[], delay);
        let out = net.lookup(o.id_of(0), Id(12345));
        assert_eq!((out.owner, out.hops, out.latency_ms), (o.id_of(0), 0, 0));
    }

    #[test]
    fn lookup_latency_accumulates_link_delays() {
        let (o, _) = build(30, 2);
        let mut net = SimNet::from_oracle(&o, &[], delay);
        let key = Id(0xdead_beef);
        let src = o.id_of(3);
        let out = net.lookup(src, key);
        // Latency counts the FindSucc chain; zero hops → zero latency.
        if out.hops == 0 {
            assert_eq!(out.latency_ms, 0);
        } else {
            assert!(out.latency_ms >= u64::from(out.hops) * 5);
        }
    }

    #[test]
    fn join_integrates_new_node_into_all_layers() {
        let (o, _) = build(40, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let new_id = Id(0x7777_7777_7777_7777);
        let bootstrap = o.id_of(0);
        let outcome = net.join(new_id, bootstrap, &[5, 10]); // ring "00"
        assert_eq!(outcome.rings_joined, 2);
        assert!(outcome.messages >= 8, "join used only {} messages", outcome.messages);
        assert!(net.node(new_id).is_some());
        let state = net.node(new_id).unwrap();
        assert_eq!(state.layer(2).ring_name.name(), "00");
        // The newcomer resolves lookups & is found by others:
        let out = net.lookup(new_id, Id(123456));
        assert_eq!(out.owner, net.node(out.owner).unwrap().id);
        // Keys directly behind the new node now belong to it.
        let probe = net.lookup(bootstrap, new_id);
        assert_eq!(probe.owner, new_id, "existing nodes must find the newcomer");
    }

    #[test]
    fn join_founds_a_new_ring_when_bin_is_empty() {
        let (o, _) = build(20, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let new_id = Id(0x1234_5678_9abc_def0);
        // RTTs that produce a bin no existing node occupies: every
        // fixture node has level-0 or level-2 RTTs only, so the
        // mid-level 50 ms reading yields the unoccupied ring "10".
        let outcome = net.join(new_id, o.id_of(0), &[50, 10]);
        assert_eq!(outcome.rings_founded, 1);
        let s = net.node(new_id).unwrap();
        let ring = s.layer(2).ring_name;
        assert_eq!(ring.name(), "10");
        assert_eq!(s.layer(2).succ, new_id); // solo ring
        // The ring table now exists at its holder.
        let holder = net.lookup(o.id_of(0), ring.ring_id()).owner;
        let held = &net.node(holder).unwrap().ring_tables[&ring];
        assert_eq!(held.entry_points(), &[new_id]);
    }

    #[test]
    fn sequential_joins_preserve_lookup_correctness() {
        let (o, _) = build(30, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let mut members: Vec<Id> = (0..30).map(|i| o.id_of(i)).collect();
        for j in 0..6u64 {
            let new_id = Id(0x0101_0101_0101_0101u64.wrapping_mul(j + 1));
            let rtts = if j % 2 == 0 { vec![5, 10] } else { vec![150, 130] };
            net.join(new_id, members[j as usize % members.len()], &rtts);
            members.push(new_id);
        }
        // Every key resolves to the node whose id is its true successor.
        let mut sorted = members.clone();
        sorted.sort_unstable();
        for k in 0..60u64 {
            let key = Id(k.wrapping_mul(0xabcd_ef01_2345_6789));
            let want = *sorted.iter().find(|&&m| m >= key).unwrap_or(&sorted[0]);
            let got = net.lookup(members[(k % members.len() as u64) as usize], key);
            assert_eq!(got.owner, want, "key {k}");
        }
    }

    #[test]
    fn traffic_stats_categorize_messages() {
        let (o, _) = build(25, 2);
        let mut net = SimNet::from_oracle(&o, &[1], delay);
        net.enable_registry();
        let delivered = |net: &SimNet, kind: &str| {
            net.registry().unwrap().counter(&["net.deliver.", kind].concat())
        };
        let _ = net.lookup(o.id_of(1), Id(42));
        let before = net.stats().total;
        assert!(before > 0);
        assert!(delivered(&net, "found_succ") > 0);
        let _ = net.join(Id(0x4242_4242_4242_4242), o.id_of(0), &[5, 10]);
        assert!(net.stats().total > before);
        for kind in ["get_ring_table", "ring_table_update", "get_landmarks"] {
            assert!(delivered(&net, kind) > 0, "kind {kind}");
        }
    }

    #[test]
    fn graceful_leave_patches_pointers_and_keeps_lookups_exact() {
        let (o, _) = build(30, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let leaver = o.id_of(7);
        let old_succ = net.node(leaver).unwrap().layer(1).succ;
        let old_pred = net.node(leaver).unwrap().layer(1).pred.unwrap();
        assert!(net.leave_node(leaver));
        assert!(!net.alive(leaver));
        assert!(!net.leave_node(leaver), "second leave is a no-op");
        // Neighbours were patched synchronously: no timeouts needed.
        assert_eq!(net.stats().timeouts, 0);
        assert_eq!(net.node(old_pred).unwrap().layer(1).succ, old_succ);
        assert_eq!(net.node(old_succ).unwrap().layer(1).pred, Some(old_pred));
        // Keys the leaver owned now resolve to its old successor, first try.
        let got = net.try_lookup(old_pred, leaver, 3, 500);
        assert_eq!(got.attempts, 1);
        assert_eq!(got.outcome.unwrap().owner, old_succ);
    }

    #[test]
    fn silent_fail_costs_timeouts_then_maintenance_heals() {
        let (o, _) = build(30, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let dead = o.id_of(11);
        let old_succ = net.node(dead).unwrap().layer(1).succ;
        assert!(net.fail_node(dead));
        assert!(!net.fail_node(dead));
        // Failure detection + stabilization over both layers.
        for layer in 1..=2u8 {
            net.check_predecessors_layer(layer);
            net.stabilize_layer(layer);
        }
        for round in 0..64u64 {
            net.fix_fingers_layer(1, round);
        }
        assert!(net.stats().timeouts > 0, "a silent fail must cost timeouts");
        // The dead node's range was absorbed by its successor.
        let probe = net.try_lookup(o.id_of(0), dead, 5, 500);
        let out = probe.outcome.expect("lookup must succeed after maintenance");
        assert_eq!(out.owner, old_succ);
        // The successor's neighbours now list it as suspect.
        assert!(net.node(old_succ).unwrap().suspects.contains(&dead));
    }

    #[test]
    fn routed_message_into_dead_node_reroutes_via_timeout() {
        // Depth 1 = pure global routing, so the forwarding choice is
        // fully predictable: the dead node's predecessor must forward a
        // lookup for the dead node's successor straight into the corpse.
        let (o, _) = build(30, 1);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let dead = o.id_of(5);
        let p = net.node(dead).unwrap().layer(1).pred.unwrap();
        let s = net.node(dead).unwrap().layer(1).succ;
        net.fail_node(dead);
        let timeouts_before = net.stats().timeouts;
        let got = net.try_lookup(p, s, 8, 1000);
        let out = got.outcome.expect("timeout path must eventually resolve");
        assert_eq!(out.owner, s, "the successor owns its own id");
        assert!(
            net.stats().timeouts > timeouts_before,
            "the first hop was into a dead node — it must cost a timeout"
        );
        // Timeout-inflated latency: at least one RTO on a first-attempt win.
        if got.attempts == 1 {
            assert!(out.latency_ms >= 250);
        }
        // The rerouting sender has marked the corpse as suspect.
        assert!(net.node(p).unwrap().suspects.contains(&dead));
    }

    #[test]
    fn lookup_survives_dead_lower_layer_predecessor() {
        // Regression: a ring-local owner used to bounce an overshooting
        // FindSucc to its layer-2 predecessor unconditionally. With
        // that predecessor silently dead, the RTO re-handle bounced to
        // the same corpse again — an infinite timeout loop, because
        // note_dead deliberately leaves pred pointers stale.
        let (o, _) = build(40, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let space = IdSpace::full();
        // A node whose ring-2 predecessor sits strictly behind its
        // global predecessor: keys in between are ring-locally owned
        // by it but globally owned by someone else — the bounce path.
        let (owner, ring_pred, global_pred) = net
            .sorted_ids()
            .iter()
            .find_map(|&n| {
                let s = net.node(n).unwrap();
                let rp = s.layer(2).pred.filter(|&p| p != n)?;
                let gp = s.layer(1).pred.filter(|&p| p != n && p != rp)?;
                space.in_open(rp, n, gp).then_some((n, rp, gp))
            })
            .expect("a 40-node two-layer fixture has an interleaved ring");
        net.fail_node(ring_pred);
        // The global predecessor's own id: ring-2-owned by `owner`,
        // globally owned by `global_pred` itself.
        let got = net.try_lookup(owner, global_pred, 3, 500);
        let out = got.outcome.expect("bounce into the corpse must reroute, not loop");
        assert_eq!(out.owner, global_pred);
        assert!(net.stats().timeouts >= 1, "the dead pred costs one RTO");
        assert!(net.node(owner).unwrap().suspects.contains(&ring_pred));
    }

    #[test]
    fn leave_hands_ring_tables_to_global_successor() {
        let (o, _) = build(30, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let holder = *net
            .sorted_ids()
            .iter()
            .find(|id| !net.node(**id).unwrap().ring_tables.is_empty())
            .expect("some node holds a ring table");
        let names: Vec<LandmarkOrder> =
            net.node(holder).unwrap().ring_tables.keys().copied().collect();
        let heir = net.node(holder).unwrap().layer(1).succ;
        net.leave_node(holder);
        for name in &names {
            assert!(
                net.node(heir).unwrap().ring_tables.contains_key(name),
                "table {name} must move to the heir"
            );
        }
    }

    #[test]
    fn rebin_moves_node_to_new_lower_ring() {
        let (o, _) = build(40, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        // Node 0 has RTTs [5, 10] → ring "00"; re-measure as [150, 130]
        // → ring "22" (both occupied by fixture nodes).
        let id = o.id_of(0);
        assert_eq!(net.node(id).unwrap().layer(2).ring_name.name(), "00");
        let moved = net.rebin_node(id, &[150, 130]);
        assert_eq!(moved, 1);
        let s = net.node(id).unwrap();
        assert_eq!(s.layer(2).ring_name.name(), "22");
        // Still resolves hierarchical lookups from its new ring.
        let out = net.try_lookup(id, Id(0xfeed_f00d), 3, 500);
        assert!(out.outcome.is_some());
        // And unchanged RTTs are a no-op.
        assert_eq!(net.rebin_node(id, &[150, 130]), 0);
    }

    #[test]
    fn obs_counters_and_spans_reconcile_with_stats() {
        use hieras_obs::{TraceKind, Tracer};
        let (o, _) = build(30, 2);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        net.enable_registry();
        net.set_tracer(Tracer::bounded(4096));
        let mut total_hops = 0u64;
        for k in 0..25u64 {
            let out = net.lookup(o.id_of((k % 30) as u32), Id(k.wrapping_mul(0x9e37)));
            total_hops += u64::from(out.hops);
        }
        let _ = net.join(Id(0x5151_5151_5151_5151), o.id_of(0), &[5, 10]);
        let r = net.take_registry().unwrap();
        // The per-kind deliver counters sum to the delivered total.
        let delivered: u64 =
            r.counters().filter(|(k, _)| k.starts_with("net.deliver.")).map(|(_, n)| n).sum();
        assert_eq!(delivered, net.stats().total);
        assert_eq!(r.counter("lookup.count"), 25);
        assert_eq!(r.counter("join.count"), 1);
        assert_eq!(r.hist("lookup.hops").unwrap().sum(), total_hops);
        // Every lookup span's closing hops field reconciles with the
        // aggregate: summed per-span hops == histogram sum.
        let t = net.take_tracer().unwrap();
        assert_eq!(t.dropped, 0);
        // Close events carry no name — join them to their open by span id.
        let lookup_spans: std::collections::HashSet<u64> = t
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Open && e.name == "lookup")
            .map(|e| e.span)
            .collect();
        let mut span_hops = 0u64;
        let mut closes = 0u64;
        for e in t.events() {
            if e.kind == TraceKind::Close && lookup_spans.contains(&e.span) {
                closes += 1;
                span_hops += e.fields.iter().find(|(k, _)| k == "hops").unwrap().1;
            }
        }
        assert_eq!(closes, 25);
        assert_eq!(span_hops, total_hops);
    }

    #[test]
    fn deeper_hierarchy_joins_every_layer() {
        let (o, _) = build(40, 3);
        let mut net = SimNet::from_oracle(&o, &[1, 2], delay);
        let new_id = Id(0x0f0f_0f0f_0f0f_0f0f);
        let outcome = net.join(new_id, o.id_of(2), &[5, 10]);
        assert_eq!(outcome.rings_joined, 3);
        let s = net.node(new_id).unwrap();
        assert_eq!(s.depth(), 3);
        // Layer ring names are prefixes of each other (nesting).
        let n2 = s.layer(2).ring_name.name();
        let n3 = s.layer(3).ring_name.name();
        assert!(n3.starts_with(&n2));
    }
}
