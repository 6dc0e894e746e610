//! Fleet description and interned socket state.
//!
//! The key scaling idea: sockets of the same machine spec holding the
//! same job multiset are interchangeable, so fleet state is a set of
//! *buckets* — `(group, contents)` — each owning a set of socket ids.
//! Policies reason over buckets (dozens to hundreds), not sockets
//! (thousands), and every predictor/oracle evaluation memoizes on the
//! bucket's [`ContentsKey`]. Socket ids only matter for assignment
//! records; the lowest id in a bucket is always picked, keeping
//! assignments deterministic.

use coloc_machine::MachineSpec;
use std::collections::{BTreeMap, BTreeSet};

/// Maximum suite size the 5-bit-per-app packing supports.
pub const MAX_APPS: usize = 12;
/// Bits per app count in a [`ContentsKey`].
pub const APP_BITS: u32 = 5;
/// Maximum per-socket instances of one app (5-bit field).
pub const MAX_COUNT: usize = (1 << APP_BITS) - 1;
/// Maximum sockets in a fleet: socket ids are `u32`.
pub const MAX_SOCKETS: usize = u32::MAX as usize;

/// A socket's contents as a packed per-app instance histogram: 5 bits per
/// suite app, app 0 in the low bits. `0` is the empty socket. Keys are
/// canonical — two sockets hold the same job multiset iff their keys are
/// equal — which makes them perfect memo keys and `BTreeMap` orderings
/// deterministic.
pub type ContentsKey = u64;

/// Instances of `app` in `key`.
pub fn key_count(key: ContentsKey, app: u8) -> usize {
    ((key >> (app as u32 * APP_BITS)) & MAX_COUNT as u64) as usize
}

/// `key` with one more instance of `app`. Panics on field overflow
/// (cores per socket are far below [`MAX_COUNT`]).
pub fn key_add(key: ContentsKey, app: u8) -> ContentsKey {
    assert!(key_count(key, app) < MAX_COUNT, "contents field overflow");
    key + (1u64 << (app as u32 * APP_BITS))
}

/// `key` with one instance of `app` removed. Panics if absent.
pub fn key_remove(key: ContentsKey, app: u8) -> ContentsKey {
    assert!(key_count(key, app) > 0, "removing an absent app");
    key - (1u64 << (app as u32 * APP_BITS))
}

/// Total job count in `key`.
pub fn key_total(key: ContentsKey) -> usize {
    (0..MAX_APPS as u8).map(|a| key_count(key, a)).sum()
}

/// The distinct apps present in `key`, ascending.
pub fn key_apps(key: ContentsKey) -> Vec<u8> {
    (0..MAX_APPS as u8)
        .filter(|&a| key_count(key, a) > 0)
        .collect()
}

/// `key` as `(app name, count)` co-runner groups for scenario building,
/// in app-index order (canonical).
pub fn key_co_groups(key: ContentsKey, names: &[String]) -> Vec<(String, usize)> {
    key_apps(key)
        .into_iter()
        .map(|a| (names[a as usize].clone(), key_count(key, a)))
        .collect()
}

/// One homogeneous slice of the fleet: `sockets` sockets of `machine`.
#[derive(Clone, Debug)]
pub struct FleetGroup {
    /// The socket's machine spec (one socket = one processor).
    pub machine: MachineSpec,
    /// Number of identical sockets in this group.
    pub sockets: usize,
}

/// A whole fleet: an ordered list of socket groups. Socket ids are
/// global and assigned group by group, lowest first.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// The socket groups, in id order.
    pub groups: Vec<FleetGroup>,
}

impl FleetSpec {
    /// The standard benchmark fleet at a given scale: `scale` copies of a
    /// mixed rack — 3× Xeon E5649, 2× E5-2697v2, 2× E5-2630v3,
    /// 1× Platinum 8153 — i.e. `8 × scale` sockets, `74 × scale` cores.
    pub fn standard(scale: usize) -> FleetSpec {
        use coloc_machine::presets;
        FleetSpec {
            groups: vec![
                FleetGroup {
                    machine: presets::xeon_e5649(),
                    sockets: 3 * scale,
                },
                FleetGroup {
                    machine: presets::xeon_e5_2697v2(),
                    sockets: 2 * scale,
                },
                FleetGroup {
                    machine: presets::xeon_e5_2630v3(),
                    sockets: 2 * scale,
                },
                FleetGroup {
                    machine: presets::xeon_platinum_8153(),
                    sockets: scale,
                },
            ],
        }
    }

    /// A single-group fleet.
    pub fn single(machine: MachineSpec, sockets: usize) -> FleetSpec {
        FleetSpec {
            groups: vec![FleetGroup { machine, sockets }],
        }
    }

    /// Total sockets across groups.
    pub fn total_sockets(&self) -> usize {
        self.groups.iter().map(|g| g.sockets).sum()
    }

    /// Total cores across groups — the wave capacity.
    pub fn total_cores(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.sockets * g.machine.cores)
            .sum()
    }

    /// Specs must validate, groups must hold sockets, core counts must
    /// fit the [`ContentsKey`] packing, and the socket total must fit
    /// [`MAX_SOCKETS`] (its core total must fit `usize`).
    pub fn validate(&self) -> Result<(), String> {
        let mut sockets = 0usize;
        let mut cores = 0usize;
        for g in &self.groups {
            g.machine.validate()?;
            if g.machine.cores > MAX_COUNT {
                return Err(format!(
                    "{}: {} cores exceed the {MAX_COUNT}-per-app contents packing",
                    g.machine.name, g.machine.cores
                ));
            }
            sockets = sockets
                .checked_add(g.sockets)
                .filter(|&n| n <= MAX_SOCKETS)
                .ok_or_else(|| format!("fleet exceeds {MAX_SOCKETS} sockets"))?;
            cores = g
                .sockets
                .checked_mul(g.machine.cores)
                .and_then(|n| n.checked_add(cores))
                .ok_or("fleet core count overflows")?;
        }
        if sockets == 0 {
            return Err("fleet needs at least one socket".into());
        }
        Ok(())
    }
}

/// Mutable fleet state for one placement wave.
pub struct Fleet<'a> {
    spec: &'a FleetSpec,
    /// Global id of each group's first socket.
    base: Vec<u32>,
    /// Current contents per socket, indexed by global id.
    socket_keys: Vec<ContentsKey>,
    /// Per group: contents key → socket ids currently holding it.
    buckets: Vec<BTreeMap<ContentsKey, BTreeSet<u32>>>,
}

impl<'a> Fleet<'a> {
    /// An empty fleet over `spec`.
    pub fn new(spec: &'a FleetSpec) -> Fleet<'a> {
        let mut base = Vec::with_capacity(spec.groups.len());
        let mut next = 0u32;
        for g in &spec.groups {
            base.push(next);
            next += g.sockets as u32;
        }
        let mut fleet = Fleet {
            spec,
            base,
            socket_keys: vec![0; next as usize],
            buckets: vec![BTreeMap::new(); spec.groups.len()],
        };
        fleet.reset();
        fleet
    }

    /// Flush every socket back to empty (wave boundary).
    pub fn reset(&mut self) {
        self.socket_keys.iter_mut().for_each(|k| *k = 0);
        for (gi, g) in self.spec.groups.iter().enumerate() {
            let ids: BTreeSet<u32> = (self.base[gi]..self.base[gi] + g.sockets as u32).collect();
            self.buckets[gi] = BTreeMap::from([(0u64, ids)]);
        }
    }

    /// The fleet spec.
    pub fn spec(&self) -> &FleetSpec {
        self.spec
    }

    /// Group of a global socket id.
    pub fn group_of(&self, socket: u32) -> usize {
        match self.base.binary_search(&socket) {
            Ok(g) => g,
            Err(ins) => ins - 1,
        }
    }

    /// Current contents of a socket.
    pub fn socket_key(&self, socket: u32) -> ContentsKey {
        self.socket_keys[socket as usize]
    }

    /// Occupied (non-empty) sockets.
    pub fn sockets_used(&self) -> usize {
        self.socket_keys.iter().filter(|&&k| k != 0).count()
    }

    /// Iterate placement candidates: every `(group, contents)` bucket
    /// that still has free cores, in deterministic (group, key) order.
    pub fn candidates(&self) -> impl Iterator<Item = (usize, ContentsKey)> + '_ {
        self.buckets.iter().enumerate().flat_map(move |(gi, b)| {
            let cores = self.spec.groups[gi].machine.cores;
            b.iter()
                .filter(move |(&key, ids)| !ids.is_empty() && key_total(key) < cores)
                .map(move |(&key, _)| (gi, key))
        })
    }

    /// Whether bucket `(group, key)` still holds a socket with a free
    /// core — i.e. is a valid [`Fleet::place`] destination right now.
    pub fn has_free(&self, group: usize, key: ContentsKey) -> bool {
        key_total(key) < self.spec.groups[group].machine.cores
            && self.buckets[group]
                .get(&key)
                .is_some_and(|ids| !ids.is_empty())
    }

    /// Place one instance of `app` on the lowest-id socket of bucket
    /// `(group, key)`. Returns the socket id. Panics if the bucket is
    /// empty or full — candidates come from [`Fleet::candidates`].
    pub fn place(&mut self, group: usize, key: ContentsKey, app: u8) -> u32 {
        let cores = self.spec.groups[group].machine.cores;
        assert!(key_total(key) < cores, "placing on a full socket");
        let bucket = self.buckets[group]
            .get_mut(&key)
            .expect("placing into a vacant bucket");
        let id = *bucket.iter().next().expect("placing into an empty bucket");
        bucket.remove(&id);
        if bucket.is_empty() {
            self.buckets[group].remove(&key);
        }
        let new_key = key_add(key, app);
        self.socket_keys[id as usize] = new_key;
        self.buckets[group].entry(new_key).or_default().insert(id);
        id
    }

    /// Iterate the occupied buckets: `(group, key, socket count)`.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, ContentsKey, usize)> + '_ {
        self.buckets.iter().enumerate().flat_map(|(gi, b)| {
            b.iter()
                .filter(|(&key, ids)| key != 0 && !ids.is_empty())
                .map(move |(&key, ids)| (gi, key, ids.len()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_machine::presets;

    #[test]
    fn key_packing_round_trips() {
        let mut key = 0u64;
        for app in [0u8, 0, 3, 10, 3, 7] {
            key = key_add(key, app);
        }
        assert_eq!(key_count(key, 0), 2);
        assert_eq!(key_count(key, 3), 2);
        assert_eq!(key_count(key, 10), 1);
        assert_eq!(key_count(key, 7), 1);
        assert_eq!(key_total(key), 6);
        assert_eq!(key_apps(key), vec![0, 3, 7, 10]);
        let removed = key_remove(key, 3);
        assert_eq!(key_count(removed, 3), 1);
        assert_eq!(key_total(removed), 5);
        // Keys are canonical: insertion order does not matter.
        let mut other = 0u64;
        for app in [10u8, 7, 3, 0, 3, 0] {
            other = key_add(other, app);
        }
        assert_eq!(key, other);
    }

    #[test]
    fn key_co_groups_are_canonical() {
        let names: Vec<String> = coloc_workloads::standard()
            .iter()
            .map(|b| b.name.to_string())
            .collect();
        let mut key = 0u64;
        for app in [4u8, 1, 4, 9] {
            key = key_add(key, app);
        }
        let groups = key_co_groups(key, &names);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], (names[1].clone(), 1));
        assert_eq!(groups[1], (names[4].clone(), 2));
        assert_eq!(groups[2], (names[9].clone(), 1));
    }

    #[test]
    fn standard_fleet_validates_and_counts() {
        let fleet = FleetSpec::standard(4);
        fleet.validate().unwrap();
        assert_eq!(fleet.total_sockets(), 32);
        assert_eq!(fleet.total_cores(), 4 * (3 * 6 + 2 * 12 + 2 * 8 + 16));
        assert!(FleetSpec { groups: vec![] }.validate().is_err());
        assert!(
            FleetSpec::single(presets::xeon_e5649(), 0)
                .validate()
                .is_err(),
            "zero sockets is degenerate"
        );
    }

    #[test]
    fn fleet_place_moves_buckets_deterministically() {
        let spec = FleetSpec::standard(1);
        let mut fleet = Fleet::new(&spec);
        assert_eq!(fleet.sockets_used(), 0);
        // First placement lands on the lowest socket id of the empty
        // bucket of group 0.
        let s0 = fleet.place(0, 0, 2);
        assert_eq!(s0, 0);
        assert_eq!(fleet.socket_key(0), key_add(0, 2));
        // Same bucket again: next lowest id.
        let s1 = fleet.place(0, 0, 2);
        assert_eq!(s1, 1);
        // Stacking onto socket 0's bucket.
        let s2 = fleet.place(0, key_add(0, 2), 5);
        assert_eq!(s2, 0);
        assert_eq!(fleet.socket_key(0), key_add(key_add(0, 2), 5));
        assert_eq!(fleet.sockets_used(), 2);
        // Group ids partition the socket space.
        assert_eq!(fleet.group_of(0), 0);
        assert_eq!(fleet.group_of(2), 0);
        assert_eq!(fleet.group_of(3), 1);
        assert_eq!(fleet.group_of(7), 3);
        // Reset flushes everything.
        fleet.reset();
        assert_eq!(fleet.sockets_used(), 0);
        assert_eq!(fleet.candidates().count(), 4, "one empty bucket per group");
    }

    #[test]
    fn full_sockets_leave_the_candidate_set() {
        let spec = FleetSpec::single(presets::xeon_e5649(), 1);
        let mut fleet = Fleet::new(&spec);
        let mut key = 0u64;
        for _ in 0..6 {
            assert_eq!(fleet.candidates().count(), 1);
            fleet.place(0, key, 0);
            key = key_add(key, 0);
        }
        assert_eq!(fleet.candidates().count(), 0, "socket is full");
        assert_eq!(fleet.occupied().count(), 1);
    }
}
