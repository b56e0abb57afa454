//! # ix-testkit — in-tree test & bench substrate
//!
//! Everything the workspace previously pulled from crates.io for testing
//! lives here, so the whole repo builds and tests **fully offline**:
//!
//! * [`bytes`] — [`Bytes`], a cheaply-cloneable `Arc<[u8]>`-backed
//!   immutable buffer (replaces the `bytes` crate) used by the zero-copy
//!   `sendv` path.
//! * [`prop`] — a deterministic, seedable property-testing harness with
//!   greedy shrinking and a [`props!`] macro mirroring `proptest!`
//!   syntax (replaces `proptest`).
//! * [`bench`] — a minimal wall-clock bench runner (replaces
//!   `criterion`).
//! * [`SimRng`] — re-export of the simulator's SplitMix64-seeded
//!   xoshiro256++ generator: the **one** RNG for workloads and tests, so
//!   every result is reproducible from `(configuration, seed)` alone.
//!
//! Policy (see DESIGN.md): new test infrastructure goes here, and no
//! crate in the workspace may depend on a registry crate.

pub mod bench;
pub mod bytes;
pub mod prop;

pub use bytes::{ByteBuf, Bytes};
pub use ix_sim::SimRng;

/// `(address, capacity)` of a vector's heap buffer. A component that
/// recycles its per-cycle vectors reports these through a
/// `scratch_buffers` accessor, and a test that compares the (sorted)
/// list before and after a run of cycles shows that no buffer was
/// regrown, dropped or replaced — ping-ponging buffers only trade
/// places.
pub fn buffer_id<T>(v: &Vec<T>) -> (usize, usize) {
    (v.as_ptr() as usize, v.capacity())
}

/// One-stop imports for property-test files.
pub mod prelude {
    pub use crate::bytes::Bytes;
    pub use crate::prop::{self, any, collection, option, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, props};
    pub use ix_sim::SimRng;
}

/// Asserts a condition inside a property; the harness catches the panic
/// and shrinks the failing input.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Choice between strategies with a common value type. Uniform:
/// `prop_oneof![s1, s2, s3]`. Weighted, with draw probability
/// proportional to each arm's weight: `prop_oneof![9 => common, 1 =>
/// rare]` (all arms must then carry a weight).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::prop::Union::weighted(vec![
            $(($weight, Box::new($arm) as Box<dyn $crate::prop::DynStrategy<_>>)),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::prop::Union::new(vec![
            $(Box::new($arm) as Box<dyn $crate::prop::DynStrategy<_>>),+
        ])
    };
}

/// Declares property tests with `proptest!`-shaped syntax:
///
/// ```
/// ix_testkit::props! {
///     #![config(cases = 64)]
///     // In a test file, add `#[test]` above the fn.
///     fn addition_commutes(a in ix_testkit::prop::any::<u32>(), b in 0u32..100) {
///         ix_testkit::prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// addition_commutes();
/// ```
///
/// Each `#[test]` fn's arguments are drawn from the strategies on the
/// right of `in`; the case stream is seeded from the test's name, so
/// failures reproduce deterministically. `#![config(cases = N)]` sets
/// the per-test case count (default 256); `IX_PROP_CASES` overrides it
/// globally at run time.
#[macro_export]
macro_rules! props {
    (
        #![config(cases = $cases:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strat = ( $( $strat, )* );
                $crate::prop::run_prop(
                    stringify!($name),
                    $cases,
                    strat,
                    |( $($arg,)* )| $body,
                );
            }
        )*
    };
    // A config header whose body failed the rule above: report it
    // instead of recursing into the default-config rule forever.
    (#![$cfg:meta] $($rest:tt)*) => {
        compile_error!(
            "props!: could not parse a property; arguments must be \
             `name in strategy` (bind with `let mut` inside the body \
             instead of `mut name in ...`)"
        );
    };
    ($($rest:tt)*) => {
        $crate::props! {
            #![config(cases = 256)]
            $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    props! {
        #![config(cases = 64)]

        /// The macro wires args, strategies, and assertions together.
        #[test]
        fn macro_smoke(
            a in any::<u16>(),
            b in 1u64..100,
            v in collection::vec(any::<u8>(), 0..8),
            o in option::of(3u8..=9),
        ) {
            prop_assert!((1..100).contains(&b));
            prop_assert!(v.len() < 8);
            if let Some(x) = o {
                prop_assert!((3..=9).contains(&x));
            }
            prop_assert_eq!(a as u64 + b, b + a as u64);
            prop_assert_ne!(b, 0);
        }
    }

    props! {
        /// Default config (no header) also parses.
        #[test]
        fn macro_default_cases(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        A(u64),
        B(usize),
    }

    props! {
        #![config(cases = 64)]

        /// `prop_oneof!` + `prop_map` compose into enum-op strategies.
        #[test]
        fn macro_oneof(ops in collection::vec(
            prop_oneof![
                (1u64..50).prop_map(Op::A),
                (0usize..4).prop_map(Op::B),
            ],
            1..20,
        )) {
            prop_assert!(!ops.is_empty());
            for op in ops {
                match op {
                    Op::A(x) => prop_assert!((1..50).contains(&x)),
                    Op::B(i) => prop_assert!(i < 4),
                }
            }
        }
    }
}
