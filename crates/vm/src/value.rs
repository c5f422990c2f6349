//! Runtime values of the GPU virtual machine.
//!
//! The VM is word-oriented: every scalar (integer of any width, float,
//! double, pointer) occupies one tagged 16-byte word. Pointers are word
//! addresses into the global (or shared) address space represented as
//! integers. A `dim3` is a word too, but the word does not hold the triple:
//! it carries `x` inline — every scalar reading of a `dim3` (`as_int`,
//! truthiness, equality) is answered from the word alone — and names its
//! `(y, z)` pair by index into the owning machine's [`Dim3Table`].

use std::collections::HashMap;
use std::fmt;

/// Base address of the per-block shared-memory address space. Addresses at
/// or above this value refer to shared memory.
pub const SHARED_SPACE_BASE: i64 = 1 << 56;

/// A tagged VM word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integers, booleans, and pointers (word addresses).
    Int(i64),
    /// `float` / `double` (both f64 in the VM; see DESIGN.md).
    Float(f64),
    /// A `dim3`: `x`, and the [`Dim3Table`] index of its `(y, z)` pair.
    /// Pairs are interned, so two `dim3` words of one machine are equal
    /// exactly when their triples are.
    Dim3 {
        /// The x component.
        x: i64,
        /// Index of `(y, z)` in the machine's [`Dim3Table`].
        yz: u32,
    },
}

// Every local, stack slot, shared word and global-memory word is one of
// these; the `dim3` arm must not widen them again.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// [`Dim3Table`] index of `(0, 0)`.
const YZ_ZEROS: u32 = 0;
/// [`Dim3Table`] index of `(1, 1)` — what a scalar coerces to.
const YZ_ONES: u32 = 1;

impl Value {
    /// The integer interpretation of the value.
    ///
    /// Floats truncate toward zero (C cast semantics); `dim3` is its x
    /// component (CUDA's implicit `dim3 → size_t` has no analogue, but
    /// launch configuration coercion needs this).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(v) => *v as i64,
            Value::Dim3 { x, .. } => *x,
        }
    }

    /// The float interpretation of the value.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            Value::Dim3 { x, .. } => *x as f64,
        }
    }

    /// Truthiness (C semantics: non-zero is true).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Dim3 { x, yz } => *x != 0 || *yz != YZ_ZEROS,
        }
    }

    /// Coerces a scalar to the `dim3` `(v, 1, 1)`, as CUDA's implicit
    /// `int → dim3` conversion does; a `dim3` is returned as it is.
    pub fn to_dim3(self) -> Value {
        match self {
            Value::Dim3 { .. } => self,
            other => Value::Dim3 {
                x: other.as_int(),
                yz: YZ_ONES,
            },
        }
    }

    /// Whether this value is a float.
    pub fn is_float(&self) -> bool {
        matches!(self, Value::Float(_))
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Dim3 { x, yz } => write!(f, "dim3({x}, yz#{yz})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(v as i64)
    }
}

/// A machine's interned `(y, z)` pairs. Indices are valid wherever a word
/// of that machine can travel: locals, stacks, shared and global memory,
/// kernel arguments of later grids.
///
/// A table starts empty, so a machine that never interns a pair other than
/// `(1, 1)` allocates nothing for it; the first other pair seeds it with
/// `YZ_ZEROS` and `YZ_ONES`.
#[derive(Debug, Clone, Default)]
pub struct Dim3Table {
    pairs: Vec<[i64; 2]>,
    index: HashMap<[i64; 2], u32>,
}

impl Dim3Table {
    /// The `dim3` word for a triple.
    pub fn intern(&mut self, [x, y, z]: [i64; 3]) -> Value {
        let yz = if [y, z] == [1, 1] {
            YZ_ONES
        } else {
            if self.pairs.is_empty() {
                // In the order of `YZ_ZEROS` and `YZ_ONES`.
                self.pairs.extend([[0, 0], [1, 1]]);
                self.index.extend([([0, 0], YZ_ZEROS), ([1, 1], YZ_ONES)]);
            }
            let next = self.pairs.len();
            *self.index.entry([y, z]).or_insert_with(|| {
                self.pairs.push([y, z]);
                u32::try_from(next).expect("more than 2^32 distinct dim3 (y, z) pairs")
            })
        };
        Value::Dim3 { x, yz }
    }

    /// The triple a word stands for; scalars coerce as [`Value::to_dim3`]
    /// does, to `(v, 1, 1)`.
    pub fn resolve(&self, v: Value) -> [i64; 3] {
        match v {
            Value::Dim3 { x, yz: YZ_ONES } => [x, 1, 1],
            Value::Dim3 { x, yz } => {
                let [y, z] = self.pairs[yz as usize];
                [x, y, z]
            }
            other => [other.as_int(), 1, 1],
        }
    }
}

/// A host-side launch dimension: an integer `n` means `(n, 1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDim(pub [i64; 3]);

impl From<i64> for LaunchDim {
    fn from(x: i64) -> Self {
        LaunchDim([x, 1, 1])
    }
}

impl From<[i64; 3]> for LaunchDim {
    fn from(d: [i64; 3]) -> Self {
        LaunchDim(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_conversions() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Float(3.9).as_int(), 3);
        assert_eq!(Value::Float(-3.9).as_int(), -3);
        assert_eq!(Value::Int(2).as_float(), 2.0);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Float(0.5).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        let mut t = Dim3Table::default();
        assert!(!t.intern([0, 0, 0]).is_truthy());
        assert!(t.intern([0, 0, 2]).is_truthy());
        assert!(t.intern([0, 1, 1]).is_truthy());
        assert!(t.intern([3, 0, 0]).is_truthy());
    }

    #[test]
    fn dim3_coercion() {
        let mut t = Dim3Table::default();
        assert_eq!(t.resolve(Value::Int(64)), [64, 1, 1]);
        assert_eq!(t.resolve(Value::Int(64).to_dim3()), [64, 1, 1]);
        assert_eq!(Value::Int(64).to_dim3(), t.intern([64, 1, 1]));
        let d = t.intern([2, 3, 4]);
        assert_eq!(t.resolve(d), [2, 3, 4]);
        assert_eq!(d.to_dim3(), d);
        assert_eq!(d.as_int(), 2);
        assert_eq!(d.as_float(), 2.0);
    }

    #[test]
    fn equal_triples_are_equal_words() {
        let mut t = Dim3Table::default();
        let a = t.intern([5, 7, 9]);
        let other = t.intern([5, 9, 7]);
        let b = t.intern([5, 7, 9]);
        assert_eq!(a, b);
        assert_ne!(a, other);
        assert_ne!(a, t.intern([6, 7, 9]));
        assert_eq!(t.intern([0, 0, 0]), t.intern([0, 0, 0]));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Value::default(), Value::Int(0));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        let mut t = Dim3Table::default();
        assert_eq!(t.intern([1, 2, 3]).to_string(), "dim3(1, yz#2)");
    }
}
