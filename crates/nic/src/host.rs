//! Hosts and CPU cores.

use std::cell::RefCell;
use std::rc::Rc;

use ix_net::eth::MacAddr;
use ix_net::ip::Ipv4Addr;
use ix_sim::{Nanos, SimTime};

use crate::nic::NicRef;

/// Identifies a host within the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(pub u16);

/// Identifies a core within a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId(pub u16);

/// A hardware thread with busy-time accounting.
///
/// Execution engines charge modeled CPU costs here; the core serializes
/// them, which is how queueing delay under load emerges. A hyperthread is
/// a `Core` with `speed < 1.0` — the paper's Fig 3a "half steps indicate
/// hyperthreads".
#[derive(Debug)]
pub struct Core {
    /// Relative execution speed (1.0 = full physical core; a hyperthread
    /// sharing a core runs at roughly 0.6).
    pub speed: f64,
    /// When currently queued work completes.
    pub busy_until: SimTime,
    /// Accumulated busy nanoseconds (for utilization and the §5.5
    /// kernel-time share measurements).
    pub busy_ns: u64,
    /// Busy nanoseconds spent in kernel/dataplane context.
    pub kernel_ns: u64,
    /// Busy nanoseconds spent in user/application context.
    pub user_ns: u64,
}

/// Shared handle to a core.
pub type CoreRef = Rc<RefCell<Core>>;

/// Which protection domain CPU time is charged to; reproduces the §5.5
/// observation that memcached spends ~75% of CPU in the Linux kernel but
/// <10% in the IX dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuDomain {
    /// Kernel or dataplane execution.
    Kernel,
    /// Application execution.
    User,
}

impl Core {
    /// Creates a full-speed core.
    pub fn new() -> Core {
        Core::with_speed(1.0)
    }

    /// Creates a core with the given relative speed.
    pub fn with_speed(speed: f64) -> Core {
        Core {
            speed,
            busy_until: SimTime::ZERO,
            busy_ns: 0,
            kernel_ns: 0,
            user_ns: 0,
        }
    }

    /// Charges `work` of nominal CPU time starting no earlier than `now`,
    /// returning the completion instant. Work is scaled by the core's
    /// speed and serialized after any queued work.
    pub fn run(&mut self, now: SimTime, work: Nanos, domain: CpuDomain) -> SimTime {
        let scaled = Nanos((work.as_nanos() as f64 / self.speed).round() as u64);
        let start = now.max(self.busy_until);
        let end = start + scaled;
        self.busy_until = end;
        self.busy_ns += scaled.as_nanos();
        match domain {
            CpuDomain::Kernel => self.kernel_ns += scaled.as_nanos(),
            CpuDomain::User => self.user_ns += scaled.as_nanos(),
        }
        end
    }

    /// Fraction of the window `[start, end)` this core spent busy.
    /// Callers snapshot `busy_ns` at the window edges.
    pub fn utilization(busy_ns_delta: u64, window: Nanos) -> f64 {
        if window.as_nanos() == 0 {
            return 0.0;
        }
        busy_ns_delta as f64 / window.as_nanos() as f64
    }
}

impl Default for Core {
    fn default() -> Core {
        Core::new()
    }
}

/// A machine: address identity, NIC ports, and cores.
///
/// In the paper's testbed the server exposes either one port (10GbE) or
/// four bonded ports (4x10GbE) and has 8 cores / 16 hyperthreads.
pub struct Host {
    /// Fabric-unique id.
    pub id: HostId,
    /// The host's IPv4 address (one per host; bonds share it).
    pub ip: Ipv4Addr,
    /// The host's MAC (bonded ports share it).
    pub mac: MacAddr,
    /// NIC ports.
    pub nics: Vec<NicRef>,
    /// Hardware threads.
    pub cores: Vec<CoreRef>,
}

impl Host {
    /// Convenience: allocate `n` full cores plus `ht` hyperthreads.
    pub fn make_cores(n: usize, ht: usize, ht_speed: f64) -> Vec<CoreRef> {
        let mut v: Vec<CoreRef> = (0..n).map(|_| Rc::new(RefCell::new(Core::new()))).collect();
        v.extend((0..ht).map(|_| Rc::new(RefCell::new(Core::with_speed(ht_speed)))));
        v
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("ip", &self.ip)
            .field("nics", &self.nics.len())
            .field("cores", &self.cores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_serializes_work() {
        let mut c = Core::new();
        let t0 = SimTime(1_000);
        let end1 = c.run(t0, Nanos(500), CpuDomain::Kernel);
        assert_eq!(end1, SimTime(1_500));
        // Second charge queues after the first even though "now" is earlier.
        let end2 = c.run(SimTime(1_200), Nanos(300), CpuDomain::User);
        assert_eq!(end2, SimTime(1_800));
        assert_eq!(c.busy_ns, 800);
        assert_eq!(c.kernel_ns, 500);
        assert_eq!(c.user_ns, 300);
    }

    #[test]
    fn idle_gap_not_accumulated() {
        let mut c = Core::new();
        c.run(SimTime(0), Nanos(100), CpuDomain::Kernel);
        // Idle from 100 to 10_000.
        let end = c.run(SimTime(10_000), Nanos(100), CpuDomain::Kernel);
        assert_eq!(end, SimTime(10_100));
        assert_eq!(c.busy_ns, 200);
        assert_eq!(c.busy_until, SimTime(10_100));
    }

    #[test]
    fn hyperthread_runs_slower() {
        let mut ht = Core::with_speed(0.5);
        let end = ht.run(SimTime(0), Nanos(100), CpuDomain::Kernel);
        assert_eq!(end, SimTime(200));
    }

    #[test]
    fn utilization_math() {
        assert_eq!(Core::utilization(500, Nanos(1_000)), 0.5);
        assert_eq!(Core::utilization(0, Nanos(0)), 0.0);
    }

    #[test]
    fn make_cores_mix() {
        let cores = Host::make_cores(2, 2, 0.6);
        assert_eq!(cores.len(), 4);
        assert_eq!(cores[0].borrow().speed, 1.0);
        assert_eq!(cores[3].borrow().speed, 0.6);
    }
}
