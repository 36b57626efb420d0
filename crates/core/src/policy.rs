//! The D-ring routing service (§3.2, Algorithm 2).
//!
//! D-ring reuses the DHT's key-based routing unchanged except for two
//! added steps, exactly as the paper presents them: after the standard
//! `local_lookup` picks the next hop `p'`,
//!
//! 1. if `p'.websiteID != key.websiteID`, run a **conditional local
//!    lookup**: among the peers this node knows, find the numerically
//!    closest one to `key` *with the same website ID as `key`*;
//! 2. if no such peer is known, keep `p'`.
//!
//! This guarantees that a message for `d_{ws,loc}` keeps moving toward
//! *some* directory peer of `ws` even when the exact target is absent
//! (not yet joined, or failed) — the directory peers of one website
//! are ring neighbours (see [`crate::id`]), so the ordinary lookup is
//! usually already right and the conditional lookup only corrects the
//! edge cases at the website block boundaries.

use chord::{ChordId, ChordState, PeerRef, RoutePolicy};

use crate::id::KeyScheme;

/// Algorithm 2's next-hop adjustment, parameterized by the key scheme.
#[derive(Clone, Copy, Debug)]
pub struct DringPolicy {
    scheme: KeyScheme,
}

impl DringPolicy {
    /// A policy for the given key layout.
    pub fn new(scheme: KeyScheme) -> Self {
        DringPolicy { scheme }
    }

    /// The key layout.
    pub fn scheme(&self) -> KeyScheme {
        self.scheme
    }

    /// The paper's `conditional_local_lookup(key, key.websiteID)`:
    /// the known peer numerically closest to `key` whose website ID
    /// equals the key's (or `None`).
    pub fn conditional_local_lookup(&self, st: &ChordState, key: ChordId) -> Option<PeerRef> {
        let me = st.me();
        st.known_peers()
            .iter()
            .copied()
            .chain(std::iter::once(me))
            .filter(|p| self.scheme.same_website(p.id, key))
            .min_by_key(|p| (p.id.ring_distance(key), p.id.0))
    }
}

impl RoutePolicy for DringPolicy {
    fn adjust_next_hop(&self, st: &ChordState, key: ChordId, dflt: PeerRef) -> PeerRef {
        if self.scheme.same_website(dflt.id, key) {
            return dflt;
        }
        self.conditional_local_lookup(st, key).unwrap_or(dflt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::{stable_ring, ChordConfig};
    use simnet::{Locality, NodeId};
    use workload::WebsiteId;

    fn scheme() -> KeyScheme {
        KeyScheme::new(8, 0)
    }

    /// Build D-ring states for the given (website, locality) pairs.
    fn dring(pairs: &[(u16, u16)]) -> (Vec<ChordState>, Vec<PeerRef>) {
        let s = scheme();
        let members: Vec<PeerRef> = pairs
            .iter()
            .enumerate()
            .map(|(i, (ws, loc))| PeerRef {
                id: s.key(WebsiteId(*ws), Locality(*loc)),
                node: NodeId(i as u32),
            })
            .collect();
        (stable_ring(&members, &ChordConfig::default()), members)
    }

    #[test]
    fn same_website_default_is_kept() {
        let (states, members) = dring(&[(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]);
        let p = DringPolicy::new(scheme());
        let key = scheme().key(WebsiteId(1), Locality(1));
        // Default next hop already of website 1 → unchanged.
        let dflt = members[2];
        let got = p.adjust_next_hop(&states[0], key, dflt);
        assert_eq!(got, dflt);
    }

    #[test]
    fn cross_website_default_is_corrected() {
        // Website 1 has localities {0, 2}; the key for locality 3 may
        // default to another website's directory — the conditional
        // lookup must pull it back to website 1.
        let (states, members) = dring(&[(1, 0), (1, 2), (2, 0), (2, 1), (3, 0)]);
        let p = DringPolicy::new(scheme());
        let key = scheme().key(WebsiteId(1), Locality(3));
        // Pretend the default lookup picked a website-2 directory.
        let wrong = members[2];
        let got = p.adjust_next_hop(&states[0], key, wrong);
        assert!(
            p.scheme().same_website(got.id, key),
            "next hop {:?} not of website 1",
            got.id
        );
    }

    #[test]
    fn conditional_lookup_picks_numerically_closest() {
        let (states, members) = dring(&[(1, 0), (1, 1), (1, 5), (2, 0)]);
        let p = DringPolicy::new(scheme());
        // Key for (1, 4): closest same-website peer is (1,5) at ring
        // distance 1, vs (1,1) at distance 3.
        let key = scheme().key(WebsiteId(1), Locality(4));
        let got = p.conditional_local_lookup(&states[3], key).unwrap();
        assert_eq!(got.id, members[2].id, "expected (1,5), got {:?}", got.id);
    }

    #[test]
    fn conditional_lookup_none_when_website_unknown() {
        let (states, _) = dring(&[(2, 0), (2, 1)]);
        let p = DringPolicy::new(scheme());
        let key = scheme().key(WebsiteId(9), Locality(0));
        // The tiny ring only knows website 2 → no same-website peer.
        assert!(p.conditional_local_lookup(&states[0], key).is_none());
        // adjust falls back to the default.
        let dflt = states[0].me();
        assert_eq!(p.adjust_next_hop(&states[0], key, dflt), dflt);
    }

    #[test]
    fn conditional_lookup_may_return_self() {
        let (states, _) = dring(&[(1, 0), (2, 0)]);
        let p = DringPolicy::new(scheme());
        // From the website-1 directory, the closest website-1 peer for
        // key (1, 3) is itself.
        let key = scheme().key(WebsiteId(1), Locality(3));
        let got = p.conditional_local_lookup(&states[0], key).unwrap();
        assert_eq!(got.node, states[0].me().node);
    }
}
