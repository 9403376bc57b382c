//! The N-dimensional resource vector behind the scheduling stack.
//!
//! The paper's model is the two-resource (CPU, memory) instance of a
//! general multi-capacity family; this module fixes the general
//! vocabulary: a [`ResourceVec`] is a small fixed array of per-node
//! fractions, one slot per resource dimension, with CPU in slot 0,
//! memory in slot 1 and GPU in slot 2. Packing and scheduling code is
//! written against `[f64; D]` slices so the dimension count is a
//! compile-time constant everywhere it matters.
//!
//! Two kinds of dimension exist:
//!
//! * **fluid** dimensions (CPU, GPU) scale with the yield — a job given
//!   yield `y` consumes `need · y` of each fluid resource;
//! * **rigid** dimensions (memory) are all-or-nothing — a placed task
//!   occupies its full requirement regardless of yield, exactly the
//!   paper's treatment of memory.

/// Number of resource dimensions the stack models.
pub const RESOURCE_DIMS: usize = 3;

/// Index of the CPU dimension (fluid).
pub const DIM_CPU: usize = 0;
/// Index of the memory dimension (rigid).
pub const DIM_MEM: usize = 1;
/// Index of the GPU dimension (fluid).
pub const DIM_GPU: usize = 2;

/// Whether each dimension scales with yield (`true`) or is occupied in
/// full whenever the task is placed (`false`).
pub const DIM_FLUID: [bool; RESOURCE_DIMS] = [true, false, true];

/// Per-task demand (or per-node capacity) across every modeled
/// dimension, as fractions of one node's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVec(pub [f64; RESOURCE_DIMS]);

impl ResourceVec {
    /// A vector from the three named demands.
    #[inline]
    pub fn new(cpu: f64, mem: f64, gpu: f64) -> Self {
        ResourceVec([cpu, mem, gpu])
    }

    /// CPU component.
    #[inline]
    pub fn cpu(&self) -> f64 {
        self.0[DIM_CPU]
    }

    /// Memory component.
    #[inline]
    pub fn mem(&self) -> f64 {
        self.0[DIM_MEM]
    }

    /// GPU component.
    #[inline]
    pub fn gpu(&self) -> f64 {
        self.0[DIM_GPU]
    }

    /// Largest component (the dominant demand).
    #[inline]
    pub fn max_component(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The dominant dimension: the index of the largest component, with
    /// ties resolved toward the *higher* index. The 2-dim degenerate
    /// case reproduces MCB8's split exactly: an item is CPU-dominant iff
    /// `cpu > mem` (a tie is memory-dominant).
    #[inline]
    pub fn dominant_dim(&self) -> usize {
        dominant_dim(&self.0)
    }

    /// Largest *fluid* component — the denominator of the dominant-share
    /// objective (memory is rigid: it never scales with yield, so it
    /// enters dominance only through packing feasibility).
    #[inline]
    pub fn dominant_fluid(&self) -> f64 {
        let mut best = 0.0f64;
        for (&fluid, &need) in DIM_FLUID.iter().zip(self.0.iter()) {
            if fluid {
                best = best.max(need);
            }
        }
        best
    }

    /// Component-wise `self + other`.
    #[inline]
    pub fn add(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = self.0;
        for (o, x) in out.iter_mut().zip(other.0.iter()) {
            *o += x;
        }
        ResourceVec(out)
    }
}

/// The dominant dimension of a raw demand slice: index of the largest
/// component, ties toward the higher index. See
/// [`ResourceVec::dominant_dim`] for the degeneration argument.
#[inline]
pub fn dominant_dim<const D: usize>(req: &[f64; D]) -> usize {
    let mut dim = 0usize;
    for d in 1..D {
        if req[d] >= req[dim] {
            dim = d;
        }
    }
    dim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_accessors_match_slots() {
        let v = ResourceVec::new(0.2, 0.5, 0.9);
        assert_eq!(v.cpu(), 0.2);
        assert_eq!(v.mem(), 0.5);
        assert_eq!(v.gpu(), 0.9);
        assert_eq!(v.max_component(), 0.9);
    }

    #[test]
    fn dominant_dim_ties_prefer_higher_index() {
        // cpu == mem tie is memory-dominant, matching MCB8's
        // `cpu_dominant == (cpu > mem)` split.
        assert_eq!(ResourceVec::new(0.5, 0.5, 0.0).dominant_dim(), DIM_MEM);
        assert_eq!(ResourceVec::new(0.6, 0.5, 0.0).dominant_dim(), DIM_CPU);
        assert_eq!(ResourceVec::new(0.2, 0.5, 0.5).dominant_dim(), DIM_GPU);
        assert_eq!(ResourceVec::new(0.2, 0.5, 0.9).dominant_dim(), DIM_GPU);
    }

    #[test]
    fn dominant_fluid_skips_memory() {
        // Memory is rigid: however large, it never becomes the fluid
        // dominant demand.
        let v = ResourceVec::new(0.3, 0.95, 0.4);
        assert_eq!(v.dominant_fluid(), 0.4);
        let cpu_only = ResourceVec::new(0.3, 0.95, 0.0);
        assert_eq!(cpu_only.dominant_fluid(), 0.3);
    }

    #[test]
    fn add_and_fits_within() {
        // Dyadic components, so every sum is exact.
        let a = ResourceVec::new(0.25, 0.5, 0.0);
        let b = ResourceVec::new(0.5, 0.25, 0.125);
        let sum = a.add(&b);
        assert_eq!(sum.0, [0.75, 0.75, 0.125]);
        assert_eq!(sum.add(&sum).0, [1.5, 1.5, 0.25]);
        // `add` leaves its operands untouched.
        assert_eq!(a.0, [0.25, 0.5, 0.0]);
        assert_eq!(b.0, [0.5, 0.25, 0.125]);
    }

    #[test]
    fn fluid_mask_matches_paper_semantics() {
        assert!(DIM_FLUID[DIM_CPU]);
        assert!(!DIM_FLUID[DIM_MEM]);
        assert!(DIM_FLUID[DIM_GPU]);
    }
}
