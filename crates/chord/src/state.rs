//! Pure, message-free Chord routing state.
//!
//! Everything here is a deterministic function of the node's knowledge
//! (predecessor, successor list, finger table), which makes the
//! routing and maintenance decisions unit-testable without a network.
//! The message-passing protocol around this state lives in
//! [`crate::proto`].

use simnet::NodeId;

use crate::id::ChordId;

/// A reference to a DHT peer: its ring identifier and its underlay
/// address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PeerRef {
    /// Ring position.
    pub id: ChordId,
    /// Underlay address to send messages to.
    pub node: NodeId,
}

/// Tunables of the Chord instance.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Length of the successor list (robustness to consecutive
    /// failures).
    pub successor_list_len: usize,
    /// Routing TTL: a routed message that exceeds this many hops is
    /// delivered at the current node (the application decides how to
    /// recover).
    pub max_hops: u8,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list_len: 8,
            max_hops: 64,
        }
    }
}

/// The local routing state of one Chord peer.
#[derive(Clone, Debug)]
pub struct ChordState {
    cfg: ChordConfig,
    me: PeerRef,
    predecessor: Option<PeerRef>,
    /// Immediate successor first; deduplicated; length bounded by
    /// `cfg.successor_list_len`.
    successors: Vec<PeerRef>,
    /// `fingers[i]` ≈ successor(me.id + 2^i).
    fingers: Vec<Option<PeerRef>>,
    next_finger: u32,
    /// Every known peer, sorted by id and deduplicated by node —
    /// rebuilt by each mutator so routing hops only scan it.
    known: Vec<PeerRef>,
}

impl ChordState {
    /// A fresh single-node ring.
    pub fn new(me: PeerRef, cfg: ChordConfig) -> Self {
        ChordState {
            cfg,
            me,
            predecessor: None,
            successors: Vec::new(),
            fingers: vec![None; ChordId::BITS as usize],
            next_finger: 0,
            known: Vec::new(),
        }
    }

    /// This peer's reference.
    pub fn me(&self) -> PeerRef {
        self.me
    }

    /// This peer's ring id.
    pub fn id(&self) -> ChordId {
        self.me.id
    }

    /// The configuration.
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<PeerRef> {
        self.predecessor
    }

    /// Immediate successor, if any.
    pub fn successor(&self) -> Option<PeerRef> {
        self.successors.first().copied()
    }

    /// The whole successor list.
    pub fn successors(&self) -> &[PeerRef] {
        &self.successors
    }

    /// The finger table (sparse).
    pub fn fingers(&self) -> impl Iterator<Item = PeerRef> + '_ {
        self.fingers.iter().flatten().copied()
    }

    /// Is this node responsible for `key`? True when `key ∈
    /// (predecessor, me]`, or when the node knows no one else.
    pub fn is_responsible(&self, key: ChordId) -> bool {
        match self.predecessor {
            Some(p) => ChordId::in_open_closed(p.id, self.me.id, key),
            // No predecessor: responsible unless a known successor is
            // a better owner (conservative bootstrap behaviour).
            None => match self.successor() {
                Some(s) => !ChordId::in_open_closed(self.me.id, s.id, key) || s.id == self.me.id,
                None => true,
            },
        }
    }

    /// Every peer this node knows: successor list, fingers and
    /// predecessor, sorted by id and deduplicated by node.
    pub fn known_peers(&self) -> &[PeerRef] {
        &self.known
    }

    /// Recompute [`ChordState::known_peers`] in place. The stable sort
    /// keeps peers of equal id in successors–fingers–predecessor
    /// order, which decides which copy of a node survives the dedup.
    fn rebuild_known(&mut self) {
        self.known.clear();
        self.known.extend(self.successors.iter().copied());
        self.known.extend(self.fingers.iter().flatten().copied());
        self.known.extend(self.predecessor);
        self.known.sort_by_key(|p| p.id.0);
        self.known.dedup_by_key(|p| p.node);
    }

    /// The classic `closest_preceding_node`: the known peer with the
    /// largest id in `(me, key)`, i.e. the longest safe jump toward
    /// `key` that cannot overshoot the owner.
    pub fn closest_preceding(&self, key: ChordId) -> Option<PeerRef> {
        self.known
            .iter()
            .copied()
            .filter(|p| p.node != self.me.node && ChordId::in_open(self.me.id, key, p.id))
            .max_by_key(|p| self.me.id.clockwise_distance(p.id))
    }

    /// The paper's `local_lookup(key)` (Algorithm 1): the best
    /// candidate for `key` among this node and its routing table.
    /// Returns `me` when this node believes it is the owner.
    pub fn local_lookup(&self, key: ChordId) -> PeerRef {
        if self.is_responsible(key) {
            return self.me;
        }
        if let Some(s) = self.successor() {
            if ChordId::in_open_closed(self.me.id, s.id, key) {
                return s;
            }
        }
        self.closest_preceding(key)
            .or(self.successor())
            .unwrap_or(self.me)
    }

    /// Install a peer into the finger table slot it fixes.
    pub fn set_finger(&mut self, index: u32, peer: PeerRef) {
        if peer.node == self.me.node {
            self.fingers[index as usize] = None;
        } else {
            self.fingers[index as usize] = Some(peer);
        }
        self.rebuild_known();
    }

    /// Round-robin finger index to refresh next, with its target key.
    pub fn next_finger_target(&mut self) -> (u32, ChordId) {
        let i = self.next_finger;
        self.next_finger = (self.next_finger + 1) % ChordId::BITS;
        (i, self.me.id.finger_target(i))
    }

    /// Adopt `s` as immediate successor (join/repair), keeping the
    /// rest of the list.
    pub fn adopt_successor(&mut self, s: PeerRef) {
        if s.node == self.me.node {
            return;
        }
        self.successors.retain(|p| p.node != s.node);
        self.successors.insert(0, s);
        self.successors.truncate(self.cfg.successor_list_len);
        self.rebuild_known();
    }

    /// Merge the successor's own list into ours (stabilization step):
    /// `ours = [succ] ++ succ_list_of_succ`, truncated and deduped.
    pub fn refresh_successor_list(&mut self, succ: PeerRef, its_list: &[PeerRef]) {
        let mut merged = Vec::with_capacity(self.cfg.successor_list_len);
        merged.push(succ);
        for p in its_list {
            if p.node != self.me.node && !merged.iter().any(|q| q.node == p.node) {
                merged.push(*p);
            }
            if merged.len() >= self.cfg.successor_list_len {
                break;
            }
        }
        self.successors = merged;
        self.rebuild_known();
    }

    /// Chord's `notify`: `candidate` claims to be our predecessor.
    /// Accept if we have none or it sits between the current
    /// predecessor and us. Returns true if adopted.
    pub fn on_notify(&mut self, candidate: PeerRef) -> bool {
        if candidate.node == self.me.node {
            return false;
        }
        let adopt = match self.predecessor {
            None => true,
            Some(p) => ChordId::in_open(p.id, self.me.id, candidate.id),
        };
        if adopt {
            self.predecessor = Some(candidate);
            self.rebuild_known();
        }
        adopt
    }

    /// Stabilization: our successor reported its predecessor `x`. If
    /// `x` sits between us and the successor, it becomes our new
    /// successor. Returns the peer we should `notify`.
    pub fn on_successor_predecessor(&mut self, succ: PeerRef, x: Option<PeerRef>) -> PeerRef {
        if let Some(x) = x {
            if x.node != self.me.node && ChordId::in_open(self.me.id, succ.id, x.id) {
                self.adopt_successor(x);
                return x;
            }
        }
        succ
    }

    /// Purge a dead peer from every routing structure. Returns true if
    /// anything referenced it.
    pub fn on_peer_dead(&mut self, node: NodeId) -> bool {
        let mut touched = false;
        if self.predecessor.map(|p| p.node) == Some(node) {
            self.predecessor = None;
            touched = true;
        }
        let before = self.successors.len();
        self.successors.retain(|p| p.node != node);
        touched |= self.successors.len() != before;
        for f in &mut self.fingers {
            if f.map(|p| p.node) == Some(node) {
                *f = None;
                touched = true;
            }
        }
        if touched {
            self.rebuild_known();
        }
        touched
    }

    /// Directly install full state (used to bootstrap the paper's
    /// "stable D-ring" start condition and by tests).
    pub fn install(
        &mut self,
        predecessor: Option<PeerRef>,
        successors: Vec<PeerRef>,
        fingers: Vec<Option<PeerRef>>,
    ) {
        assert_eq!(
            fingers.len(),
            ChordId::BITS as usize,
            "finger table must have {} slots",
            ChordId::BITS
        );
        self.predecessor = predecessor;
        self.successors = successors;
        self.successors.truncate(self.cfg.successor_list_len);
        self.fingers = fingers;
        self.rebuild_known();
    }
}

/// Compute exact, globally consistent Chord states for a set of
/// members — the paper's evaluation "starts with a stable D-ring", and
/// Squirrel likewise starts from a converged ring.
///
/// Members must have distinct ids and nodes. Returns states in the
/// same order as `members`.
pub fn stable_ring(members: &[PeerRef], cfg: &ChordConfig) -> Vec<ChordState> {
    assert!(!members.is_empty(), "ring needs at least one member");
    let mut sorted: Vec<PeerRef> = members.to_vec();
    sorted.sort_by_key(|p| p.id.0);
    for w in sorted.windows(2) {
        assert!(w[0].id != w[1].id, "duplicate ring id {:?}", w[0].id);
    }
    let n = sorted.len();
    // successor(key): first member with id >= key, wrapping.
    let successor_of_key = |key: ChordId| -> PeerRef {
        match sorted.binary_search_by(|p| p.id.0.cmp(&key.0)) {
            Ok(i) => sorted[i],
            Err(i) => sorted[i % n],
        }
    };

    members
        .iter()
        .map(|me| {
            let pos = sorted
                .iter()
                .position(|p| p.node == me.node)
                .expect("member in ring");
            let mut st = ChordState::new(*me, cfg.clone());
            let pred = sorted[(pos + n - 1) % n];
            let succs: Vec<PeerRef> = (1..=cfg.successor_list_len.min(n - 1))
                .map(|d| sorted[(pos + d) % n])
                .collect();
            let fingers: Vec<Option<PeerRef>> = (0..ChordId::BITS)
                .map(|i| {
                    let t = me.id.finger_target(i);
                    let s = successor_of_key(t);
                    if s.node == me.node {
                        None
                    } else {
                        Some(s)
                    }
                })
                .collect();
            let pred = if n == 1 { None } else { Some(pred) };
            st.install(pred, succs, fingers);
            st
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(id: u64, node: u32) -> PeerRef {
        PeerRef {
            id: ChordId(id),
            node: NodeId(node),
        }
    }

    fn ring(ids: &[u64]) -> Vec<ChordState> {
        let members: Vec<PeerRef> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| peer(*id, i as u32))
            .collect();
        stable_ring(&members, &ChordConfig::default())
    }

    #[test]
    fn single_node_owns_everything() {
        let sts = ring(&[42]);
        assert!(sts[0].is_responsible(ChordId(0)));
        assert!(sts[0].is_responsible(ChordId(u64::MAX)));
        assert_eq!(sts[0].local_lookup(ChordId(7)).node, NodeId(0));
    }

    #[test]
    fn stable_ring_structure() {
        let sts = ring(&[10, 20, 30, 40]);
        // Node with id 20: predecessor 10, successor 30.
        let s20 = &sts[1];
        assert_eq!(s20.predecessor().unwrap().id, ChordId(10));
        assert_eq!(s20.successor().unwrap().id, ChordId(30));
        // Responsibility: (10, 20].
        assert!(s20.is_responsible(ChordId(15)));
        assert!(s20.is_responsible(ChordId(20)));
        assert!(!s20.is_responsible(ChordId(10)));
        assert!(!s20.is_responsible(ChordId(25)));
        // Wrap-around: node 10 owns (40, 10].
        assert!(sts[0].is_responsible(ChordId(5)));
        assert!(sts[0].is_responsible(ChordId(u64::MAX)));
    }

    #[test]
    fn local_lookup_finds_owner_or_progress() {
        let sts = ring(&[10, 20, 30, 40]);
        // From node 10, key 25 is owned by 30; 10's successor is 20 so
        // lookup must return a node strictly closer to 30.
        let next = sts[0].local_lookup(ChordId(25));
        assert!(next.id == ChordId(20) || next.id == ChordId(30));
        // Owner lookup is identity.
        assert_eq!(sts[2].local_lookup(ChordId(25)).id, ChordId(30));
    }

    #[test]
    fn closest_preceding_never_overshoots() {
        let sts = ring(&[0, 1 << 16, 1 << 32, 1 << 48]);
        let st = &sts[0];
        for key in [5u64, 1 << 20, 1 << 40, 1 << 60, u64::MAX] {
            if let Some(p) = st.closest_preceding(ChordId(key)) {
                assert!(ChordId::in_open(st.id(), ChordId(key), p.id));
            }
        }
    }

    #[test]
    fn notify_adopts_closer_predecessor() {
        let mut st = ChordState::new(peer(100, 0), ChordConfig::default());
        assert!(st.on_notify(peer(50, 1)));
        assert_eq!(st.predecessor().unwrap().id, ChordId(50));
        // 80 ∈ (50, 100): closer predecessor, adopt.
        assert!(st.on_notify(peer(80, 2)));
        // 20 ∉ (80, 100): reject.
        assert!(!st.on_notify(peer(20, 3)));
        assert_eq!(st.predecessor().unwrap().id, ChordId(80));
    }

    #[test]
    fn stabilize_adopts_interposed_node() {
        let mut st = ChordState::new(peer(10, 0), ChordConfig::default());
        st.adopt_successor(peer(30, 2));
        // Successor 30 reports predecessor 20: 20 ∈ (10, 30) → new succ.
        let to_notify = st.on_successor_predecessor(peer(30, 2), Some(peer(20, 1)));
        assert_eq!(to_notify.id, ChordId(20));
        assert_eq!(st.successor().unwrap().id, ChordId(20));
        // Successor list keeps 30 as backup.
        assert!(st.successors().iter().any(|p| p.id == ChordId(30)));
    }

    #[test]
    fn peer_death_purges_everywhere() {
        let sts = ring(&[10, 20, 30, 40]);
        let mut st = sts[0].clone();
        let dead = st.successor().unwrap();
        assert!(st.on_peer_dead(dead.node));
        assert_ne!(st.successor().map(|p| p.node), Some(dead.node));
        assert!(st.known_peers().iter().all(|p| p.node != dead.node));
        assert!(!st.on_peer_dead(dead.node), "second purge is a no-op");
    }

    #[test]
    fn successor_list_is_bounded_and_deduped() {
        let cfg = ChordConfig {
            successor_list_len: 3,
            ..Default::default()
        };
        let mut st = ChordState::new(peer(0, 0), cfg);
        st.adopt_successor(peer(10, 1));
        st.refresh_successor_list(
            peer(10, 1),
            &[
                peer(20, 2),
                peer(10, 1),
                peer(30, 3),
                peer(40, 4),
                peer(0, 0),
            ],
        );
        let ids: Vec<u64> = st.successors().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![10, 20, 30]);
    }

    #[test]
    fn next_finger_round_robin() {
        let mut st = ChordState::new(peer(0, 0), ChordConfig::default());
        let (i0, t0) = st.next_finger_target();
        assert_eq!((i0, t0), (0, ChordId(1)));
        let (i1, t1) = st.next_finger_target();
        assert_eq!((i1, t1), (1, ChordId(2)));
        for _ in 2..64 {
            st.next_finger_target();
        }
        assert_eq!(st.next_finger_target().0, 0, "wraps after BITS fingers");
    }

    #[test]
    fn fingers_skip_self() {
        let mut st = ChordState::new(peer(0, 0), ChordConfig::default());
        st.set_finger(3, peer(0, 0));
        assert_eq!(st.fingers().count(), 0);
        st.set_finger(3, peer(9, 1));
        assert_eq!(st.fingers().count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate ring id")]
    fn stable_ring_rejects_duplicate_ids() {
        let members = vec![peer(5, 0), peer(5, 1)];
        let _ = stable_ring(&members, &ChordConfig::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The known-peer list computed from scratch on every call — the
    /// reference for the slice [`ChordState`] maintains.
    fn known_peers_from_scratch(st: &ChordState) -> Vec<PeerRef> {
        let mut out: Vec<PeerRef> = st.successors().to_vec();
        out.extend(st.fingers());
        out.extend(st.predecessor());
        out.sort_by_key(|p| p.id.0);
        out.dedup_by_key(|p| p.node);
        out
    }

    fn distinct_ids() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::btree_set(any::<u64>(), 1..40).prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// In a stable ring, exactly one member is responsible for any
        /// key, and it is the clockwise successor of the key.
        #[test]
        fn unique_owner(ids in distinct_ids(), key in any::<u64>()) {
            let members: Vec<PeerRef> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| PeerRef { id: ChordId(*id), node: NodeId(i as u32) })
                .collect();
            let states = stable_ring(&members, &ChordConfig::default());
            let owners: Vec<&ChordState> =
                states.iter().filter(|s| s.is_responsible(ChordId(key))).collect();
            prop_assert_eq!(owners.len(), 1, "key must have exactly one owner");
            // The owner is the member minimizing clockwise distance key→owner.
            let owner = owners[0].id();
            for m in &members {
                prop_assert!(
                    ChordId(key).clockwise_distance(owner) <= ChordId(key).clockwise_distance(m.id)
                );
            }
        }

        /// The maintained known-peer slice equals the from-scratch
        /// computation after every step of a random mutator sequence.
        /// Ids and nodes are drawn from small sets so that peers share
        /// ids, nodes reappear under new ids and `me` shows up in
        /// inputs; `set_finger` dominates so the list grows past the
        /// length where an unstable sort would still keep tie order.
        #[test]
        fn known_peers_tracks_every_mutator(
            ops in proptest::collection::vec(
                (
                    0u8..16,
                    (0u32..10, 0u64..12),
                    0u32..64,
                    proptest::collection::vec((0u32..10, 0u64..12), 0..6),
                ),
                1..120,
            ),
            succ_len in 1usize..6,
        ) {
            let at = |(node, id): (u32, u64)| PeerRef { id: ChordId(id << 60), node: NodeId(node) };
            let cfg = ChordConfig { successor_list_len: succ_len, ..Default::default() };
            let mut st = ChordState::new(at((0, 5)), cfg);
            for (kind, p, index, list) in ops {
                let peer = at(p);
                let list: Vec<PeerRef> = list.into_iter().map(at).collect();
                match kind {
                    0..=8 => st.set_finger(index, peer),
                    9 => st.adopt_successor(peer),
                    10 => st.refresh_successor_list(peer, &list),
                    11 => {
                        st.on_notify(peer);
                    }
                    12 => {
                        st.on_peer_dead(peer.node);
                    }
                    13 => {
                        let mut fingers = vec![None; ChordId::BITS as usize];
                        for (k, f) in list.iter().enumerate() {
                            fingers[(index as usize + 7 * k) % ChordId::BITS as usize] = Some(*f);
                        }
                        st.install(list.first().copied(), list.clone(), fingers);
                    }
                    _ => {
                        st.on_successor_predecessor(peer, list.first().copied());
                    }
                }
                prop_assert_eq!(st.known_peers(), known_peers_from_scratch(&st).as_slice());
            }
        }

        /// local_lookup from any member makes progress: the result is
        /// either the owner or strictly closer (clockwise) to the key.
        #[test]
        fn lookup_progress(ids in distinct_ids(), key in any::<u64>()) {
            let members: Vec<PeerRef> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| PeerRef { id: ChordId(*id), node: NodeId(i as u32) })
                .collect();
            let states = stable_ring(&members, &ChordConfig::default());
            let key = ChordId(key);
            // The true owner minimizes the clockwise distance key→owner.
            let owner = members
                .iter()
                .min_by_key(|p| key.clockwise_distance(p.id))
                .unwrap();
            for st in &states {
                let next = st.local_lookup(key);
                if next.node == st.me().node {
                    prop_assert!(st.is_responsible(key));
                    prop_assert_eq!(next.node, owner.node, "self-delivery at a non-owner");
                } else {
                    // Either we hand directly to the owner, or we jump
                    // strictly closer to the key (remaining clockwise
                    // distance next→key shrinks).
                    let me_to_key = st.id().clockwise_distance(key);
                    let next_to_key = next.id.clockwise_distance(key);
                    prop_assert!(
                        next.node == owner.node || next_to_key < me_to_key,
                        "no progress: me={:?} next={:?} key={:?}", st.id(), next.id, key
                    );
                }
            }
        }
    }
}
