//! Device global memory: a word-addressed bump allocator with
//! bounds-checked access. `check`, `read` and `write` are `#[inline]`: the
//! memory-op handlers reach them from another codegen unit (no LTO).

use crate::error::ExecError;
use crate::value::Value;

/// Simulated device global memory (word-addressed).
#[derive(Debug, Default)]
pub struct Memory {
    data: Vec<Value>,
    bump: usize,
}

impl Memory {
    pub(crate) fn new() -> Self {
        // Address 0 is reserved as a null pointer. No word is stored before
        // the first `alloc`, which grows `data` to cover it too: nothing
        // below `bump` is addressable until then.
        Memory {
            data: Vec::new(),
            bump: 1,
        }
    }

    /// Allocates `words` words, returning the base address.
    pub(crate) fn alloc(&mut self, words: usize) -> i64 {
        let base = self.bump;
        self.bump += words;
        if self.data.len() < self.bump {
            self.data.resize(self.bump, Value::Int(0));
        }
        base as i64
    }

    #[inline]
    fn check(&self, addr: i64) -> Result<usize, ExecError> {
        let a = addr as usize;
        if addr <= 0 || a >= self.bump {
            return Err(ExecError::new(format!(
                "memory access out of bounds: address {addr} (allocated up to {})",
                self.bump
            )));
        }
        Ok(a)
    }

    /// Bounds-checks `words` words starting at `addr` in one comparison,
    /// returning the base index. `words` must be non-zero.
    fn check_range(&self, addr: i64, words: usize) -> Result<usize, ExecError> {
        let a = addr as usize;
        if addr <= 0 || words > self.bump || a > self.bump - words {
            return Err(ExecError::new(format!(
                "memory access out of bounds: range {addr}..{} (allocated up to {})",
                addr.saturating_add(words as i64),
                self.bump
            )));
        }
        Ok(a)
    }

    /// Reads one word.
    #[inline]
    pub fn read(&self, addr: i64) -> Result<Value, ExecError> {
        Ok(self.data[self.check(addr)?])
    }

    /// Writes one word.
    #[inline]
    pub fn write(&mut self, addr: i64, value: Value) -> Result<(), ExecError> {
        let a = self.check(addr)?;
        self.data[a] = value;
        Ok(())
    }

    /// Reads `words` consecutive words as a slice (single bounds check).
    pub fn read_range(&self, addr: i64, words: usize) -> Result<&[Value], ExecError> {
        if words == 0 {
            return Ok(&[]);
        }
        let a = self.check_range(addr, words)?;
        Ok(&self.data[a..a + words])
    }

    /// Writes `values` consecutively starting at `addr` (single bounds
    /// check + `copy_from_slice`).
    #[cfg(test)]
    pub(crate) fn write_range(&mut self, addr: i64, values: &[Value]) -> Result<(), ExecError> {
        if values.is_empty() {
            return Ok(());
        }
        let a = self.check_range(addr, values.len())?;
        self.data[a..a + values.len()].copy_from_slice(values);
        Ok(())
    }

    /// Mutable view of `words` consecutive words (single bounds check).
    pub(crate) fn slice_mut(&mut self, addr: i64, words: usize) -> Result<&mut [Value], ExecError> {
        if words == 0 {
            return Ok(&mut []);
        }
        let a = self.check_range(addr, words)?;
        Ok(&mut self.data[a..a + words])
    }

    /// Fills a range with a value (buffer zeroing): one bounds check plus a
    /// `slice::fill`, not a checked store per word.
    pub fn fill(&mut self, addr: i64, words: usize, value: Value) -> Result<(), ExecError> {
        self.slice_mut(addr, words)?.fill(value);
        Ok(())
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> usize {
        self.bump
    }
}
