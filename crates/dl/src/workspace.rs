//! Reusable scratch buffers for allocation-free inference.
//!
//! Every forward pass through the networks needs temporaries: layer
//! activations, LSTM gate pre-activations, hidden/cell state. A
//! [`Workspace`] owns one growable buffer per role; the inference paths
//! resize them in place (`Matrix::resize` keeps capacity), so after the
//! first call of a given shape, scoring performs **zero** heap allocation.
//! The workspace counts buffer growth events, which is how the tests prove
//! the steady state really is allocation-free.

use crate::tensor::Matrix;

/// Scratch buffers shared by the inference hot paths.
///
/// A workspace is cheap to create but meant to be long-lived: keep one per
/// scoring thread and pass it to every `score_*` call. Buffers grow to the
/// high-water mark of the shapes seen and then stay put.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Ping activation buffer (dense stacks alternate a ↔ b).
    pub(crate) a: Matrix,
    /// Pong activation buffer.
    pub(crate) b: Matrix,
    /// Current LSTM step inputs `x_t`, one row per sequence.
    pub(crate) x: Matrix,
    /// LSTM gate pre-activations (`rows × 4·hidden`).
    pub(crate) z: Matrix,
    /// LSTM hidden state.
    pub(crate) h: Matrix,
    /// LSTM cell state.
    pub(crate) c: Matrix,
    grows: usize,
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// How many times any internal buffer had to grow its allocation.
    ///
    /// After a warm-up call per (model, batch shape), this must stay
    /// constant across further calls — the steady-state zero-allocation
    /// guarantee the detection hot path relies on.
    pub fn grow_events(&self) -> usize {
        self.grows
    }

    /// Records a buffer-growth observation from a resize/copy call.
    #[inline]
    pub(crate) fn note(&mut self, grew: bool) {
        self.grows += usize::from(grew);
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_events_count_only_growth() {
        let mut ws = Workspace::new();
        assert_eq!(ws.grow_events(), 0);
        let grew = ws.x.resize(4, 4);
        ws.note(grew);
        assert_eq!(ws.grow_events(), 1);
        let grew = ws.x.resize(2, 2); // shrink reuses capacity
        ws.note(grew);
        assert_eq!(ws.grow_events(), 1);
    }
}
