//! Replicated socket metadata for naming and destination addressing.
//!
//! Paper §3.5 "Local data structures": *"Socket structures that maintain
//! communication metadata are stored in the local memory. FlacOS employs
//! the replication-based method to synchronize metadata across nodes to
//! achieve fast and reliable connection establishment and destination
//! addressing."*
//!
//! The name → endpoint table is a [`KvReplica`] inside a [`SyncCell`] on
//! the replication policy: each node reads its own replica, and binds
//! and unbinds go through the cell's shared op log. Lookups are
//! node-local after the tail check — connection establishment never
//! round-trips a directory server, and the table survives any single
//! node's failure (every node has a full replica plus the log is in
//! global memory).

use flacdk::sync::{SyncCell, SyncCellConfig, SyncPolicy, SyncState};
use flacdk::wire::{fnv1a, Decoder, Encoder};
use rack_sim::{GlobalMemory, NodeCtx, NodeId, SimError};
use std::collections::HashMap;
use std::sync::Arc;

const OP_PUT: u8 = 0;
const OP_DEL: u8 = 1;

/// A replicated `u64 -> bytes` map: the state behind the socket table.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KvReplica {
    map: HashMap<u64, Vec<u8>>,
}

impl KvReplica {
    /// The op inserting or overwriting `key`.
    pub fn put_op(key: u64, value: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(OP_PUT).put_u64(key).put_bytes(value);
        e.into_vec()
    }

    /// The op removing `key`.
    pub fn del_op(key: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(OP_DEL).put_u64(key);
        e.into_vec()
    }

    /// The value bound to `key`.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.map.get(&key).map(Vec::as_slice)
    }

    /// Number of bound keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no key is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl SyncState for KvReplica {
    fn apply(&mut self, op: &[u8]) {
        let mut d = Decoder::new(op);
        match d.u8() {
            Ok(OP_PUT) => {
                if let (Ok(k), Ok(v)) = (d.u64(), d.bytes()) {
                    self.map.insert(k, v.to_vec());
                }
            }
            Ok(OP_DEL) => {
                if let Ok(k) = d.u64() {
                    self.map.remove(&k);
                }
            }
            _ => {}
        }
    }
}

/// Where a named service is reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketAddr {
    /// Node hosting the listener.
    pub node: NodeId,
    /// Channel/listener identifier on that node.
    pub channel: u64,
}

impl SocketAddr {
    fn encode(self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.node.0 as u64).put_u64(self.channel);
        e.into_vec()
    }

    fn decode(bytes: &[u8]) -> Result<Self, SimError> {
        let mut d = Decoder::new(bytes);
        let node = d.u64().map_err(|e| SimError::Protocol(e.to_string()))?;
        let channel = d.u64().map_err(|e| SimError::Protocol(e.to_string()))?;
        Ok(SocketAddr {
            node: NodeId(node as usize),
            channel,
        })
    }
}

/// A node's view of the rack-wide socket name table.
#[derive(Debug)]
pub struct SocketRegistry {
    table: Arc<SyncCell<KvReplica>>,
    node: Arc<NodeCtx>,
}

impl SocketRegistry {
    /// Allocate the replicated cell backing the registry.
    ///
    /// # Errors
    ///
    /// Fails when global memory is exhausted.
    pub fn alloc_shared(
        global: &GlobalMemory,
        nodes: usize,
    ) -> Result<Arc<SyncCell<KvReplica>>, SimError> {
        SyncCell::alloc(
            global,
            "socket_table",
            SyncCellConfig::new(nodes, SyncPolicy::Replicated).with_log(1024, 128),
            KvReplica::default(),
        )
    }

    /// This node's registry view.
    pub fn new(shared: Arc<SyncCell<KvReplica>>, node: Arc<NodeCtx>) -> Self {
        SocketRegistry {
            table: shared,
            node,
        }
    }

    /// Bind `name` to `addr` rack-wide.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn bind(&self, name: &str, addr: SocketAddr) -> Result<(), SimError> {
        let op = KvReplica::put_op(fnv1a(name.as_bytes()), &addr.encode());
        self.table.update(&self.node, &op).map(drop)
    }

    /// Remove the binding for `name`.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn unbind(&self, name: &str) -> Result<(), SimError> {
        let op = KvReplica::del_op(fnv1a(name.as_bytes()));
        self.table.update(&self.node, &op).map(drop)
    }

    /// Resolve `name` to its current address (node-local after the
    /// catch-up).
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn lookup(&self, name: &str) -> Result<Option<SocketAddr>, SimError> {
        let key = fnv1a(name.as_bytes());
        self.table
            .read(&self.node, |t| t.get(key).map(SocketAddr::decode))?
            .transpose()
    }

    /// Number of live bindings.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn len(&self) -> Result<usize, SimError> {
        self.table.read(&self.node, KvReplica::len)
    }

    /// Whether no names are bound.
    ///
    /// # Errors
    ///
    /// Propagates log errors.
    pub fn is_empty(&self) -> Result<bool, SimError> {
        self.table.read(&self.node, KvReplica::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rack_sim::{Rack, RackConfig};

    fn setup() -> (Rack, SocketRegistry, SocketRegistry) {
        let rack = Rack::new(RackConfig::small_test());
        let shared = SocketRegistry::alloc_shared(rack.global(), rack.node_count()).unwrap();
        let r0 = SocketRegistry::new(shared.clone(), rack.node(0));
        let r1 = SocketRegistry::new(shared, rack.node(1));
        (rack, r0, r1)
    }

    #[test]
    fn kv_replica_applies_put_overwrite_and_delete() {
        let mut kv = KvReplica::default();
        kv.apply(&KvReplica::put_op(1, b"one"));
        kv.apply(&KvReplica::put_op(2, b"two"));
        kv.apply(&KvReplica::put_op(1, b"uno"));
        assert_eq!((kv.get(1), kv.len()), (Some(&b"uno"[..]), 2));
        kv.apply(&KvReplica::del_op(2));
        kv.apply(&[0xff, 1, 2]); // malformed ops are ignored
        assert_eq!((kv.get(2), kv.len()), (None, 1));
    }

    #[test]
    fn kv_replica_ops_from_two_nodes_converge() {
        let rack = Rack::new(RackConfig::small_test());
        let shared = SocketRegistry::alloc_shared(rack.global(), 2).unwrap();
        let (n0, n1) = (rack.node(0), rack.node(1));
        shared.update(&n0, &KvReplica::put_op(1, b"one")).unwrap();
        shared.update(&n1, &KvReplica::put_op(2, b"two")).unwrap();
        shared.update(&n0, &KvReplica::del_op(1)).unwrap();
        let get = |node, key| shared.read(node, |kv| kv.get(key).map(<[u8]>::to_vec));
        assert_eq!(get(&n1, 1).unwrap(), None);
        assert_eq!(get(&n0, 2).unwrap(), Some(b"two".to_vec()));
        assert_eq!(shared.read(&n1, KvReplica::len).unwrap(), 1);
        assert!(!shared.read(&n0, KvReplica::is_empty).unwrap());
    }

    #[test]
    fn bind_on_one_node_resolve_on_another() {
        let (_rack, r0, r1) = setup();
        let addr = SocketAddr {
            node: NodeId(0),
            channel: 42,
        };
        r0.bind("redis-server", addr).unwrap();
        assert_eq!(r1.lookup("redis-server").unwrap(), Some(addr));
        assert_eq!(r1.lookup("unknown").unwrap(), None);
    }

    #[test]
    fn rebind_moves_the_service() {
        let (_rack, r0, r1) = setup();
        r0.bind(
            "svc",
            SocketAddr {
                node: NodeId(0),
                channel: 1,
            },
        )
        .unwrap();
        // Service migrates to node 1.
        r1.bind(
            "svc",
            SocketAddr {
                node: NodeId(1),
                channel: 9,
            },
        )
        .unwrap();
        assert_eq!(
            r0.lookup("svc").unwrap(),
            Some(SocketAddr {
                node: NodeId(1),
                channel: 9
            })
        );
        assert_eq!(r0.len().unwrap(), 1);
    }

    #[test]
    fn unbind_removes_everywhere() {
        let (_rack, r0, r1) = setup();
        r0.bind(
            "tmp",
            SocketAddr {
                node: NodeId(0),
                channel: 1,
            },
        )
        .unwrap();
        r1.unbind("tmp").unwrap();
        assert_eq!(r0.lookup("tmp").unwrap(), None);
        assert!(r0.is_empty().unwrap());
    }

    #[test]
    fn lookups_after_sync_are_local() {
        let (rack, r0, r1) = setup();
        r0.bind(
            "a",
            SocketAddr {
                node: NodeId(0),
                channel: 1,
            },
        )
        .unwrap();
        r1.lookup("a").unwrap(); // catches node 1's replica up
        let before = rack.node(1).stats().snapshot();
        // Further lookups only check the tail: no writes, no messages.
        r1.lookup("a").unwrap();
        let after = rack.node(1).stats().snapshot();
        assert_eq!(after.global_writes, before.global_writes);
        assert_eq!(after.global_atomics, before.global_atomics);
        assert_eq!(after.messages_sent, before.messages_sent);
    }
}
