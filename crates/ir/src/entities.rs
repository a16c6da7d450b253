//! Index newtypes naming the entities of a [`Function`](crate::Function).
//!
//! All entities are dense `u32` indices into per-function (or per-module)
//! arenas. The newtypes keep the index spaces statically distinct
//! (C-NEWTYPE).

use std::fmt;

macro_rules! entity {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an entity reference from a raw index.
            pub fn new(index: usize) -> Self {
                $name(u32::try_from(index).expect("entity index overflow"))
            }

            /// Returns the raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Writes the printed name (prefix and index) to `w`.
            pub(crate) fn write<W: fmt::Write + ?Sized>(self, w: &mut W) -> fmt::Result {
                w.write_str($prefix)?;
                crate::print::write_decimal(w, u64::from(self.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.write(f)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }
    };
}

entity! {
    /// A basic block within a function.
    Block, "bb"
}

entity! {
    /// An SSA value: either a function parameter or an instruction result.
    Value, "v"
}

entity! {
    /// An instruction within a function.
    InstId, "inst"
}

entity! {
    /// A mutable local variable slot (pre-SSA form only).
    Local, "loc"
}

entity! {
    /// A function within a module.
    FuncId, "fn"
}

entity! {
    /// A stable identifier for a static bounds-check site.
    ///
    /// Sites survive optimization: when ABCD hoists a check, the inserted
    /// [`SpecCheck`](crate::InstKind::SpecCheck) and the residual
    /// [`TrapIfFlagged`](crate::InstKind::TrapIfFlagged) carry the site of the
    /// original check, which is how the VM attributes dynamic counts and how
    /// the paper's Figure 6 percentages are computed.
    CheckSite, "ck"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_roundtrip() {
        let b = Block::new(7);
        assert_eq!(b.index(), 7);
        assert_eq!(b.to_string(), "bb7");
        assert_eq!(format!("{b:?}"), "bb7");
    }

    #[test]
    fn entity_ordering_follows_index() {
        assert!(Value::new(1) < Value::new(2));
        assert_eq!(Value::new(3), Value::new(3));
    }

    #[test]
    #[should_panic(expected = "entity index overflow")]
    fn entity_overflow_panics() {
        let _ = Block::new(usize::MAX);
    }
}
