//! Upcall events — the stack-side source of the paper's event conditions.
//!
//! Table 1 of the paper defines five event conditions; [`TcpEvent`] maps
//! onto them one-to-one. The IX dataplane copies these into the
//! user-visible event-condition array; the Linux model translates them
//! into socket readiness (epoll) instead. Keeping the enum here lets both
//! execution models share the protocol code.

use ix_net::ip::Ipv4Addr;
use ix_testkit::Bytes;

/// Identifies a flow within one shard, with a generation tag so stale
/// handles (to closed-and-reused tuples) are rejected rather than
/// misdirected — part of the dataplane's syscall validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    /// Packed tuple key: remote IP (32) | remote port (16) | local port (16).
    pub key: u64,
    /// Generation counter at flow creation.
    pub gen: u32,
}

impl FlowId {
    /// Packs a key from tuple components.
    pub fn pack(remote_ip: Ipv4Addr, remote_port: u16, local_port: u16) -> u64 {
        (remote_ip.0 as u64) << 32 | (remote_port as u64) << 16 | local_port as u64
    }

    /// The tuple a key packs: `(remote_ip, remote_port, local_port)`.
    /// The key is the only copy of the tuple a connection keeps.
    pub fn unpack(key: u64) -> (Ipv4Addr, u16, u16) {
        (Ipv4Addr((key >> 32) as u32), (key >> 16) as u16, key as u16)
    }

    /// The remote IP from the packed key.
    pub fn remote_ip(&self) -> Ipv4Addr {
        FlowId::unpack(self.key).0
    }

    /// The remote port from the packed key.
    pub fn remote_port(&self) -> u16 {
        FlowId::unpack(self.key).1
    }

    /// The local port from the packed key.
    pub fn local_port(&self) -> u16 {
        FlowId::unpack(self.key).2
    }
}

/// Why a connection died (the `dead` event's `reason` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadReason {
    /// The peer sent a FIN and the close handshake completed (or the peer
    /// half-closed; no more data will arrive).
    PeerFin,
    /// The peer reset the connection.
    PeerReset,
    /// Retransmission retries were exhausted.
    TimedOut,
    /// The local side closed/aborted it.
    LocalClose,
}

/// An upcall from the stack to its execution engine.
///
/// Field names follow Table 1 of the paper: `cookie` is the opaque
/// user-supplied value for user-level state lookup; `handle` (here
/// [`FlowId`]) is the kernel-level flow identifier.
#[derive(Debug)]
pub enum TcpEvent {
    /// A remotely initiated connection finished its handshake
    /// (Table 1: `knock{handle, src IP, src port}`).
    Knock {
        /// The new flow.
        flow: FlowId,
        /// Peer address.
        src_ip: Ipv4Addr,
        /// Peer port.
        src_port: u16,
    },
    /// A locally initiated connection finished opening
    /// (Table 1: `connected{cookie, outcome}`).
    Connected {
        /// The flow (valid only when `ok`).
        flow: FlowId,
        /// User cookie from `connect`.
        cookie: u64,
        /// Whether the handshake succeeded.
        ok: bool,
    },
    /// Payload arrived in order (Table 1: `recv{cookie, mbuf ptr, mbuf
    /// len}`). The payload is a refcounted view into the receive mbuf's
    /// own storage — nothing is copied between the ring and the
    /// application. The stack holds the mbuf until the consumer credits
    /// the bytes back via `recv_done`, which advances the window and
    /// frees the buffer (the paper's cooperative flow control, §3).
    Recv {
        /// The flow.
        flow: FlowId,
        /// User cookie.
        cookie: u64,
        /// View of exactly the newly delivered bytes, aliasing the
        /// receive buffer the stack retains until `recv_done`.
        payload: Bytes,
    },
    /// Previously sent bytes were acknowledged and/or the send window
    /// changed (Table 1: `sent{cookie, bytes sent, window size}`).
    Sent {
        /// The flow.
        flow: FlowId,
        /// User cookie.
        cookie: u64,
        /// Newly acknowledged payload bytes.
        bytes_acked: u32,
        /// Usable send window after this ACK.
        window: u32,
    },
    /// The connection terminated (Table 1: `dead{cookie, reason}`).
    Dead {
        /// The flow.
        flow: FlowId,
        /// User cookie.
        cookie: u64,
        /// Why.
        reason: DeadReason,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowid_pack_unpack() {
        let ip = Ipv4Addr::new(10, 1, 2, 3);
        let key = FlowId::pack(ip, 8080, 1234);
        let id = FlowId { key, gen: 7 };
        assert_eq!(id.remote_ip(), ip);
        assert_eq!(id.remote_port(), 8080);
        assert_eq!(id.local_port(), 1234);
    }

    #[test]
    fn distinct_tuples_distinct_keys() {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let a = FlowId::pack(ip, 1, 2);
        let b = FlowId::pack(ip, 2, 1);
        assert_ne!(a, b);
        let c = FlowId::pack(Ipv4Addr::new(10, 0, 0, 2), 1, 2);
        assert_ne!(a, c);
    }
}
