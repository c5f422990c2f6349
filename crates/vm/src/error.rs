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
    pub fn in_function(mut self, name: &str) -> Self {
        self.function = Some(name.to_string());
        self
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
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
    context: Option<String>,
}

impl ExecError {
    /// Creates a new execution error.
    pub fn new(message: impl Into<String>) -> Self {
        ExecError(Box::new(ExecErrorInner {
            message: message.into(),
            context: None,
        }))
    }

    /// Attaches kernel/block/thread context.
    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.0.context = Some(context.into());
        self
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.0.message
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.context {
            Some(ctx) => write!(f, "execution error ({ctx}): {}", self.0.message),
            None => write!(f, "execution error: {}", self.0.message),
        }
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
    fn exec_error_display() {
        let e = ExecError::new("out-of-bounds store").with_context("kernel `k` block 3 thread 5");
        assert!(e.to_string().contains("block 3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<CompileError>();
        check::<ExecError>();
    }
}
