//! The execution-mode switch: real kernels vs the simulated-kernel protocol.

use std::sync::Arc;
use supersim_core::SimSession;

/// How task bodies execute.
#[derive(Clone)]
pub enum ExecMode {
    /// Execute the actual tile kernels (a "real" run, producing numerical
    /// results and wall-clock timings).
    Real,
    /// Replace every kernel with the simulated-kernel protocol of the given
    /// session (a simulated run, producing a virtual-time trace).
    Simulated(Arc<SimSession>),
}

impl ExecMode {
    /// The session, if simulated.
    pub fn session(&self) -> Option<&Arc<SimSession>> {
        match self {
            ExecMode::Real => None,
            ExecMode::Simulated(s) => Some(s),
        }
    }
}

impl std::fmt::Debug for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Real => write!(f, "Real"),
            ExecMode::Simulated(_) => write!(f, "Simulated"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{ModelRegistry, SimConfig};

    #[test]
    fn mode_predicates() {
        assert!(ExecMode::Real.session().is_none());
        let s = SimSession::new(ModelRegistry::new(), SimConfig::default());
        let m = ExecMode::Simulated(s);
        assert!(m.session().is_some());
        assert_eq!(format!("{m:?}"), "Simulated");
    }
}
