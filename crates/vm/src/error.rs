//! Error types for lowering and execution.

use std::error::Error;
use std::fmt;

/// An error while lowering AST to bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    message: String,
    function: Option<String>,
}

impl CompileError {
    /// Creates a new lowering error.
    pub fn new(message: impl Into<String>) -> Self {
        CompileError {
            message: message.into(),
            function: None,
        }
    }

    /// Attaches the function being lowered.
    pub(crate) fn in_function(mut self, name: &str) -> Self {
        self.function = Some(name.to_string());
        self
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(func) => write!(f, "compile error in `{func}`: {}", self.message),
            None => write!(f, "compile error: {}", self.message),
        }
    }
}

impl Error for CompileError {}

/// A runtime error during simulated execution.
///
/// One pointer wide: every op handler returns `Result<_, ExecError>`, and a
/// result that fits two registers does not travel through memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(Box<ExecErrorInner>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ExecErrorInner {
    message: String,
}

impl ExecError {
    /// Creates a new execution error.
    ///
    /// Kept out of line: inlined into the interpreter's op handlers, the
    /// construction changes their code generation, and `dpbench`'s
    /// `sweep-cold` measured a third more processor time per sweep.
    #[cold]
    #[inline(never)]
    pub fn new(message: impl Into<String>) -> Self {
        ExecError(Box::new(ExecErrorInner {
            message: message.into(),
        }))
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.0.message)
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_error_display() {
        let e = CompileError::new("local arrays are not supported").in_function("k");
        assert_eq!(
            e.to_string(),
            "compile error in `k`: local arrays are not supported"
        );
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<CompileError>();
        check::<ExecError>();
    }
}
