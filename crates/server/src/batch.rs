//! Batched UDP socket I/O for the multi-worker transport.
//!
//! On Linux (x86_64/aarch64) this wraps the `recvmmsg(2)`/`sendmmsg(2)`
//! syscalls — one kernel crossing moves up to a whole batch of datagrams —
//! plus `SO_REUSEPORT` socket creation so N worker sockets can share one
//! port with kernel-side 4-tuple load balancing. The bindings are declared
//! by hand (`extern "C"` against the libc the Rust std library already
//! links) because this workspace deliberately carries no FFI crates.
//!
//! Everywhere else — or when the unit tests force [`BatchMode::Single`] to
//! cover the portable path on Linux — the same [`BatchSocket`] API degrades to one blocking `recv_from` per
//! "batch" and a `send_to` loop, which is exactly the pre-sharding
//! transport behavior. The fallback matrix:
//!
//! | platform                  | recv            | send        | port sharing  |
//! |---------------------------|-----------------|-------------|---------------|
//! | linux x86_64/aarch64      | `recvmmsg`      | `sendmmsg`  | `SO_REUSEPORT`|
//! | linux (mode = Single)     | `recv_from` ×1  | `send_to`   | `SO_REUSEPORT`|
//! | everything else           | `recv_from` ×1  | `send_to`   | `try_clone`   |

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Largest DNS query we accept per datagram slot. Queries are small (a
/// question plus OPT), but EDNS allows clients to pad; 4 KiB is generous.
pub(crate) const RECV_SLOT_BYTES: usize = 4_096;

/// Default datagrams per batch.
pub const DEFAULT_BATCH: usize = 32;

/// How a [`BatchSocket`] moves datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchMode {
    /// `recvmmsg`/`sendmmsg` (Linux fast path).
    Mmsg,
    /// One `recv_from` per batch call, `send_to` loop (portable).
    Single,
}

impl BatchMode {
    /// The fastest mode this build supports.
    pub(crate) fn fastest() -> BatchMode {
        if mmsg_supported() {
            BatchMode::Mmsg
        } else {
            BatchMode::Single
        }
    }
}

/// True when the mmsg fast path is compiled in.
pub(crate) const fn mmsg_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// One received datagram: the filled prefix of its slot plus the peer.
#[derive(Debug)]
pub(crate) struct RecvSlot {
    pub buf: Vec<u8>,
    pub len: usize,
    pub peer: SocketAddr,
}

/// Reusable receive-side state: `batch` slots of [`RECV_SLOT_BYTES`] each.
/// Allocated once per worker and recycled across batches.
#[derive(Debug)]
pub(crate) struct RecvBatch {
    slots: Vec<RecvSlot>,
    /// Number of slots filled by the last `recv_batch` call.
    filled: usize,
}

impl RecvBatch {
    pub(crate) fn new(batch: usize) -> Self {
        let batch = batch.clamp(1, 1_024);
        RecvBatch {
            slots: (0..batch)
                .map(|_| RecvSlot {
                    buf: vec![0u8; RECV_SLOT_BYTES],
                    len: 0,
                    peer: SocketAddr::from(([127, 0, 0, 1], 0)),
                })
                .collect(),
            filled: 0,
        }
    }

    /// The datagrams filled by the last `recv_batch` call.
    pub(crate) fn received(&self) -> impl Iterator<Item = (&[u8], SocketAddr)> {
        self.slots[..self.filled]
            .iter()
            .map(|s| (&s.buf[..s.len], s.peer))
    }
}

/// An outgoing datagram queued for `send_batch`.
#[derive(Debug)]
pub(crate) struct SendItem {
    pub bytes: Vec<u8>,
    pub peer: SocketAddr,
}

/// Reusable send-side state: a pool of [`SendItem`]s whose byte buffers
/// are recycled across batches, so the steady-state response path encodes
/// into already-allocated capacity instead of growing a fresh `Vec` per
/// datagram.
///
/// Usage per response: write into [`SendQueue::slot`] (cleared, capacity
/// intact), then [`SendQueue::commit`] it with the peer address. Uncommitted
/// slots are simply reused by the next `slot` call, so a handler that
/// declines to answer leaves no trace. After [`BatchSocket::send_batch`]
/// on [`SendQueue::items`], call [`SendQueue::clear`] to start the next
/// batch without dropping any buffer.
#[derive(Debug, Default)]
pub(crate) struct SendQueue {
    items: Vec<SendItem>,
    committed: usize,
}

impl SendQueue {
    pub(crate) fn with_capacity(batch: usize) -> Self {
        SendQueue {
            items: Vec::with_capacity(batch),
            committed: 0,
        }
    }

    /// The next outgoing buffer: cleared, but retaining whatever capacity
    /// it grew in earlier batches.
    pub(crate) fn slot(&mut self) -> &mut Vec<u8> {
        if self.committed == self.items.len() {
            self.items.push(SendItem {
                bytes: Vec::with_capacity(RECV_SLOT_BYTES),
                peer: SocketAddr::from(([127, 0, 0, 1], 0)),
            });
        }
        let item = &mut self.items[self.committed];
        item.bytes.clear();
        &mut item.bytes
    }

    /// Enqueues the buffer last returned by [`SendQueue::slot`] for `peer`.
    pub(crate) fn commit(&mut self, peer: SocketAddr) {
        self.items[self.committed].peer = peer;
        self.committed += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.committed
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.committed == 0
    }

    /// The committed datagrams, ready for [`BatchSocket::send_batch`].
    pub(crate) fn items(&self) -> &[SendItem] {
        &self.items[..self.committed]
    }

    /// Forgets the committed items but keeps every buffer for reuse.
    pub(crate) fn clear(&mut self) {
        self.committed = 0;
    }
}

/// A UDP socket with batch send/receive on top of either the mmsg fast
/// path or the portable single-datagram fallback.
#[derive(Debug)]
pub(crate) struct BatchSocket {
    sock: UdpSocket,
    mode: BatchMode,
}

impl BatchSocket {
    /// Wraps an already bound socket. Falls back to [`BatchMode::Single`]
    /// when the requested mode is not compiled in.
    pub(crate) fn new(sock: UdpSocket, mode: BatchMode) -> Self {
        let mode = match mode {
            BatchMode::Mmsg if mmsg_supported() => BatchMode::Mmsg,
            _ => BatchMode::Single,
        };
        BatchSocket { sock, mode }
    }

    /// Receives up to `batch.capacity()` datagrams, blocking (subject to
    /// the socket's read timeout) for the first one. Returns the number of
    /// datagrams filled; timeout surfaces as the usual
    /// `WouldBlock`/`TimedOut` error so callers can re-check stop flags.
    pub(crate) fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        batch.filled = 0;
        match self.mode {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BatchMode::Mmsg => {
                let n = mmsg::recv_batch(&self.sock, &mut batch.slots)?;
                batch.filled = n;
                Ok(n)
            }
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            BatchMode::Mmsg => unreachable!("BatchSocket::new downgrades Mmsg when unsupported"),
            BatchMode::Single => {
                let slot = &mut batch.slots[0];
                let (len, peer) = self.sock.recv_from(&mut slot.buf)?;
                slot.len = len;
                slot.peer = peer;
                batch.filled = 1;
                Ok(1)
            }
        }
    }

    /// Sends every item, batching syscalls on the fast path. Returns the
    /// number of datagrams handed to the kernel; per-datagram send errors
    /// (e.g. a vanished peer) are skipped, matching the old loop's
    /// `let _ = socket.send_to(..)`.
    pub(crate) fn send_batch(&self, items: &[SendItem]) -> io::Result<usize> {
        if items.is_empty() {
            return Ok(0);
        }
        match self.mode {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BatchMode::Mmsg => mmsg::send_batch(&self.sock, items),
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            BatchMode::Mmsg => unreachable!("BatchSocket::new downgrades Mmsg when unsupported"),
            BatchMode::Single => {
                let mut sent = 0;
                for item in items {
                    if self.sock.send_to(&item.bytes, item.peer).is_ok() {
                        sent += 1;
                    }
                }
                Ok(sent)
            }
        }
    }
}

/// Binds a loopback IPv4 UDP socket on `port` (0 = ephemeral) that other
/// workers can bind alongside. On Linux the socket is created with
/// `SO_REUSEPORT` set *before* bind, so every subsequent worker binding
/// the same port succeeds and the kernel spreads clients across the
/// sockets by 4-tuple hash. Elsewhere this is a plain bind — callers share
/// one socket via `try_clone` instead (see [`mmsg_supported`]).
pub(crate) fn bind_worker_socket(port: u16) -> io::Result<UdpSocket> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        mmsg::bind_reuseport(port)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        UdpSocket::bind(("127.0.0.1", port))
    }
}

/// True when [`bind_worker_socket`] produces port-sharing sockets.
pub(crate) const fn reuseport_supported() -> bool {
    mmsg_supported()
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod mmsg {
    //! Hand-rolled libc declarations for the Linux batch-I/O fast path.
    //! Layouts and constants are the x86_64/aarch64 kernel ABI (identical
    //! on both): this module is only compiled for those targets.

    use std::ffi::c_void;
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd};

    use super::{RecvSlot, SendItem};

    const AF_INET: i32 = 2;
    const SOCK_DGRAM: i32 = 2;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;
    /// Block for the first datagram only; return whatever else is queued.
    const MSG_WAITFORONE: i32 = 0x10000;

    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        /// Network byte order.
        sin_port: u16,
        /// Network byte order.
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    impl SockAddrIn {
        fn new(addr: SocketAddrV4) -> Self {
            SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                sin_addr: u32::from(*addr.ip()).to_be(),
                sin_zero: [0; 8],
            }
        }

        fn to_socket_addr(&self) -> SocketAddr {
            SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::from(u32::from_be(self.sin_addr)),
                u16::from_be(self.sin_port),
            ))
        }
    }

    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const c_void, optlen: u32)
            -> i32;
        fn close(fd: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut c_void,
        ) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }

    /// Creates a 127.0.0.1 UDP socket with `SO_REUSEPORT` set before bind.
    pub(super) fn bind_reuseport(port: u16) -> io::Result<UdpSocket> {
        unsafe {
            let fd = socket(AF_INET, SOCK_DGRAM, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let one: i32 = 1;
            if setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                &one as *const i32 as *const c_void,
                std::mem::size_of::<i32>() as u32,
            ) < 0
            {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            let sa = SockAddrIn::new(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port));
            if bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) < 0 {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            // From here the std socket owns (and will close) the fd.
            Ok(UdpSocket::from_raw_fd(fd))
        }
    }

    /// One `recvmmsg` call: blocks for the first datagram (honoring the
    /// socket's `SO_RCVTIMEO`), then drains whatever else is queued, up to
    /// `slots.len()` datagrams.
    pub(super) fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> io::Result<usize> {
        let vlen = slots.len();
        let mut names: Vec<SockAddrIn> = (0..vlen)
            .map(|_| SockAddrIn::new(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)))
            .collect();
        let mut iovs: Vec<IoVec> = slots
            .iter_mut()
            .map(|s| IoVec {
                iov_base: s.buf.as_mut_ptr() as *mut c_void,
                iov_len: s.buf.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = (0..vlen)
            .map(|i| MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: &mut names[i] as *mut SockAddrIn as *mut c_void,
                    msg_namelen: std::mem::size_of::<SockAddrIn>() as u32,
                    msg_iov: &mut iovs[i],
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();
        let n = unsafe {
            recvmmsg(
                sock.as_raw_fd(),
                hdrs.as_mut_ptr(),
                vlen as u32,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = n as usize;
        for i in 0..n {
            slots[i].len = (hdrs[i].msg_len as usize).min(slots[i].buf.len());
            slots[i].peer = names[i].to_socket_addr();
        }
        Ok(n)
    }

    /// Sends every item with as few `sendmmsg` calls as possible. IPv6
    /// peers never occur on the loopback testbed, but are skipped safely.
    pub(super) fn send_batch(sock: &UdpSocket, items: &[SendItem]) -> io::Result<usize> {
        let v4: Vec<(&SendItem, SocketAddrV4)> = items
            .iter()
            .filter_map(|it| match it.peer {
                SocketAddr::V4(a) => Some((it, a)),
                SocketAddr::V6(_) => None,
            })
            .collect();
        let mut names: Vec<SockAddrIn> = v4.iter().map(|(_, a)| SockAddrIn::new(*a)).collect();
        let mut iovs: Vec<IoVec> = v4
            .iter()
            .map(|(it, _)| IoVec {
                // sendmmsg never writes through iov_base; the cast is for
                // the shared msghdr layout.
                iov_base: it.bytes.as_ptr() as *mut c_void,
                iov_len: it.bytes.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = (0..v4.len())
            .map(|i| MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: &mut names[i] as *mut SockAddrIn as *mut c_void,
                    msg_namelen: std::mem::size_of::<SockAddrIn>() as u32,
                    msg_iov: &mut iovs[i],
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();
        let mut sent = 0usize;
        while sent < hdrs.len() {
            let n = unsafe {
                sendmmsg(
                    sock.as_raw_fd(),
                    hdrs[sent..].as_mut_ptr(),
                    (hdrs.len() - sent) as u32,
                    0,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // Give up on the rest; per-datagram errors are non-fatal
                // for a UDP responder.
                if sent > 0 {
                    return Ok(sent);
                }
                return Err(err);
            }
            if n == 0 {
                break;
            }
            sent += n as usize;
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn single_mode_round_trip() {
        let server = BatchSocket::new(UdpSocket::bind("127.0.0.1:0").unwrap(), BatchMode::Single);
        server
            .sock
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let addr = server.sock.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"ping", addr).unwrap();
        let mut batch = RecvBatch::new(8);
        let n = server.recv_batch(&mut batch).unwrap();
        assert_eq!(n, 1);
        let (bytes, peer) = batch.received().next().unwrap();
        assert_eq!(bytes, b"ping");
        assert_eq!(peer, client.local_addr().unwrap());
        server
            .send_batch(&[SendItem {
                bytes: b"pong".to_vec(),
                peer,
            }])
            .unwrap();
        let mut buf = [0u8; 16];
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let (len, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"pong");
    }

    #[test]
    fn fastest_mode_round_trip_batches() {
        // On Linux this exercises recvmmsg/sendmmsg; elsewhere it is the
        // single-datagram path again.
        let sock = bind_worker_socket(0).unwrap();
        let server = BatchSocket::new(sock, BatchMode::fastest());
        server
            .sock
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let addr = server.sock.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        for i in 0..4u8 {
            client.send_to(&[b'm', i], addr).unwrap();
        }
        let mut batch = RecvBatch::new(8);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut peer = None;
        while got.len() < 4 {
            let n = server.recv_batch(&mut batch).unwrap();
            assert!(n >= 1);
            for (bytes, p) in batch.received() {
                got.push(bytes.to_vec());
                peer = Some(p);
            }
        }
        got.sort();
        assert_eq!(
            got,
            vec![vec![b'm', 0], vec![b'm', 1], vec![b'm', 2], vec![b'm', 3]]
        );
        // Batched echo back.
        let items: Vec<SendItem> = got
            .iter()
            .map(|b| SendItem {
                bytes: b.clone(),
                peer: peer.unwrap(),
            })
            .collect();
        assert_eq!(server.send_batch(&items).unwrap(), 4);
        let mut echoed = 0;
        let mut buf = [0u8; 16];
        while echoed < 4 {
            let (len, _) = client.recv_from(&mut buf).unwrap();
            assert_eq!(len, 2);
            echoed += 1;
        }
    }

    #[test]
    fn send_queue_recycles_buffers_across_batches() {
        let mut q = SendQueue::with_capacity(4);
        let peer = SocketAddr::from(([127, 0, 0, 1], 53));

        q.slot().extend_from_slice(&[1u8; 512]);
        q.commit(peer);
        // An uncommitted slot must not leak into the batch.
        q.slot().extend_from_slice(b"dropped");
        assert_eq!(q.len(), 1);
        assert_eq!(q.items().len(), 1);
        assert_eq!(q.items()[0].bytes.len(), 512);
        assert_eq!(q.items()[0].peer, peer);

        q.clear();
        assert!(q.is_empty());
        // The recycled slot comes back cleared but with its old capacity.
        let slot = q.slot();
        assert!(slot.is_empty());
        assert!(slot.capacity() >= 512);
        let before = slot.as_ptr();
        slot.extend_from_slice(&[2u8; 100]);
        q.commit(peer);
        assert_eq!(q.items()[0].bytes.as_ptr(), before, "no reallocation");
        assert_eq!(q.items()[0].bytes, vec![2u8; 100]);
    }

    #[test]
    fn reuseport_allows_two_sockets_on_one_port() {
        if !reuseport_supported() {
            return;
        }
        let a = bind_worker_socket(0).unwrap();
        let port = a.local_addr().unwrap().port();
        let b = bind_worker_socket(port).unwrap();
        assert_eq!(b.local_addr().unwrap().port(), port);
    }

    #[test]
    fn timeout_surfaces_as_error_not_hang() {
        let server = BatchSocket::new(
            UdpSocket::bind("127.0.0.1:0").unwrap(),
            BatchMode::fastest(),
        );
        server
            .sock
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut batch = RecvBatch::new(4);
        let err = server.recv_batch(&mut batch).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
    }
}
