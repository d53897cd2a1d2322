//! Simulated device global memory.
//!
//! All arrays are stored as `f64` regardless of declared element type — the
//! paper's experiments run entirely in double precision; element sizes still
//! follow the declared type for traffic accounting.

use sf_minicuda::host::{parse_instance, AllocInfo, ExecutablePlan};
use std::collections::HashMap;

/// One device array: extents (slowest-varying first) and row-major data.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct DeviceArray {
    pub info: AllocInfo,
    pub data: Vec<f64>,
    /// Precomputed row-major strides.
    strides: Vec<usize>,
}

impl DeviceArray {
    /// Allocate a zero-initialized array.
    pub fn new(info: AllocInfo) -> DeviceArray {
        let mut strides = vec![1usize; info.extents.len()];
        for ax in (0..info.extents.len().saturating_sub(1)).rev() {
            strides[ax] = strides[ax + 1] * info.extents[ax + 1];
        }
        DeviceArray {
            data: vec![0.0; info.len()],
            info,
            strides,
        }
    }

    /// Flatten a multi-index; `None` when out of bounds or wrong rank.
    pub fn offset(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.info.extents.len() {
            return None;
        }
        let mut off = 0usize;
        for ((&i, &extent), &stride) in idx
            .iter()
            .zip(&self.info.extents)
            .zip(&self.strides)
        {
            if i < 0 || i as usize >= extent {
                return None;
            }
            off += i as usize * stride;
        }
        Some(off)
    }
}

/// The global-memory space of the simulated device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GlobalMemory {
    arrays: HashMap<String, DeviceArray>,
}

impl GlobalMemory {
    /// Heap bytes a memory image for this plan would occupy, computed
    /// *without* allocating — the resource governor charges this before
    /// [`GlobalMemory::from_plan`] materializes anything.
    pub fn plan_bytes(plan: &ExecutablePlan) -> u64 {
        plan.allocs
            .iter()
            .map(|a| a.len() as u64 * std::mem::size_of::<f64>() as u64)
            .sum()
    }

    /// Total allocated domain cells across a plan's arrays (also
    /// computed without allocating).
    pub fn plan_cells(plan: &ExecutablePlan) -> u64 {
        plan.allocs.iter().map(|a| a.len() as u64).sum()
    }

    /// Heap bytes this image currently holds.
    pub fn total_bytes(&self) -> u64 {
        self.arrays
            .values()
            .map(|a| a.data.len() as u64 * std::mem::size_of::<f64>() as u64)
            .sum()
    }

    /// Allocate every array in a plan (zero-initialized).
    pub fn from_plan(plan: &ExecutablePlan) -> GlobalMemory {
        let mut m = GlobalMemory::default();
        for a in &plan.allocs {
            m.arrays.insert(a.name.clone(), DeviceArray::new(a.clone()));
        }
        m
    }

    /// Access an array immutably.
    pub fn get(&self, name: &str) -> Option<&DeviceArray> {
        self.arrays.get(name)
    }

    /// Access an array mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut DeviceArray> {
        self.arrays.get_mut(name)
    }

    /// Remove an array (the interpreter checks arrays out for the duration
    /// of a launch so the hot path needs no name lookups).
    pub fn take(&mut self, name: &str) -> Option<DeviceArray> {
        self.arrays.remove(name)
    }

    /// Put an array back after a launch.
    pub fn put(&mut self, name: String, array: DeviceArray) {
        self.arrays.insert(name, array);
    }

    /// Initialize an array's contents from a function of the flat offset.
    /// Deterministic seeding for verification runs.
    pub fn fill_with(&mut self, name: &str, f: impl Fn(usize) -> f64) {
        if let Some(a) = self.arrays.get_mut(name) {
            for (i, v) in a.data.iter_mut().enumerate() {
                *v = f(i);
            }
        }
    }

    /// Seed every array with a deterministic pseudo-random pattern derived
    /// from the array's *base name* (a redundant-instance suffix `__i<n>`
    /// is ignored), so that a transformed program — which may allocate
    /// extra instance arrays — sees exactly the same initial data as the
    /// original during verification.
    pub fn seed_all(&mut self, salt: u64) {
        let names: Vec<String> = self.arrays.keys().cloned().collect();
        for name in names {
            let base_name = parse_instance(&name).map_or(name.as_str(), |(base, _)| base);
            // FNV-1a over the base name, mixed with the salt.
            let mut h: u64 = 0xcbf29ce484222325 ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
            for b in base_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            self.fill_with(&name, |i| {
                // SplitMix-style hash mapped into [-1, 1].
                let mut z = h.wrapping_add((i as u64).wrapping_mul(0xBF58476D1CE4E5B9));
                z ^= z >> 27;
                z = z.wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z as f64 / u64::MAX as f64) * 2.0 - 1.0
            });
        }
    }

    /// Names of all arrays, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.arrays.keys().cloned().collect();
        v.sort();
        v
    }

    /// Maximum absolute difference per array between two memories with the
    /// same shape. Used to verify transformed programs against originals.
    ///
    /// NOTE: the `f64::max` fold silently drops NaN differences
    /// (`f64::max(0.0, NaN) == 0.0`), so this alone cannot prove equality.
    /// Verification must also consult [`GlobalMemory::compare`], whose
    /// [`ArrayDiff::has_nan`] flag reports NaN on either side.
    pub fn max_abs_diff(&self, other: &GlobalMemory) -> HashMap<String, f64> {
        let mut out = HashMap::new();
        for (name, a) in &self.arrays {
            if let Some(b) = other.arrays.get(name) {
                let d = a
                    .data
                    .iter()
                    .zip(&b.data)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f64, f64::max);
                out.insert(name.clone(), d);
            }
        }
        out
    }

    /// NaN-aware comparison per array between two memories with the same
    /// shape. A NaN on either side is never folded into the numeric
    /// difference; it is reported separately so callers can treat it as a
    /// hard failure.
    pub fn compare(&self, other: &GlobalMemory) -> HashMap<String, ArrayDiff> {
        let mut out = HashMap::new();
        for (name, a) in &self.arrays {
            if let Some(b) = other.arrays.get(name) {
                let mut d = ArrayDiff::default();
                for (x, y) in a.data.iter().zip(&b.data) {
                    if x.is_nan() || y.is_nan() {
                        d.has_nan = true;
                    } else {
                        d.max_abs_diff = d.max_abs_diff.max((x - y).abs());
                    }
                }
                out.insert(name.clone(), d);
            }
        }
        out
    }
}

/// Per-array result of [`GlobalMemory::compare`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrayDiff {
    /// Maximum absolute difference over positions where both sides hold
    /// comparable (non-NaN) values.
    pub max_abs_diff: f64,
    /// Either side holds a NaN somewhere in the array.
    pub has_nan: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::ast::ScalarType;

    fn info(name: &str, extents: Vec<usize>) -> AllocInfo {
        AllocInfo {
            name: name.into(),
            elem: ScalarType::F64,
            extents,
        }
    }

    #[test]
    fn offsets_are_row_major() {
        let a = DeviceArray::new(info("a", vec![4, 3, 2]));
        assert_eq!(a.offset(&[0, 0, 0]), Some(0));
        assert_eq!(a.offset(&[0, 0, 1]), Some(1));
        assert_eq!(a.offset(&[0, 1, 0]), Some(2));
        assert_eq!(a.offset(&[1, 0, 0]), Some(6));
        assert_eq!(a.offset(&[3, 2, 1]), Some(23));
    }

    #[test]
    fn bounds_are_checked() {
        let a = DeviceArray::new(info("a", vec![4, 3, 2]));
        assert_eq!(a.offset(&[4, 0, 0]), None);
        assert_eq!(a.offset(&[-1, 0, 0]), None);
        assert_eq!(a.offset(&[0, 0]), None);
    }

    #[test]
    fn seeding_is_deterministic_and_distinct() {
        let mut m1 = GlobalMemory::default();
        m1.arrays
            .insert("a".into(), DeviceArray::new(info("a", vec![16])));
        m1.arrays
            .insert("b".into(), DeviceArray::new(info("b", vec![16])));
        let mut m2 = m1.clone();
        m1.seed_all(7);
        m2.seed_all(7);
        assert_eq!(m1, m2);
        let a = &m1.get("a").unwrap().data;
        let b = &m1.get("b").unwrap().data;
        assert_ne!(a, b);
        assert!(a.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn diff_detects_changes() {
        let mut m1 = GlobalMemory::default();
        m1.arrays
            .insert("a".into(), DeviceArray::new(info("a", vec![8])));
        let mut m2 = m1.clone();
        m2.get_mut("a").unwrap().data[3] = 0.5;
        let d = m1.max_abs_diff(&m2);
        assert_eq!(d["a"], 0.5);
    }

    /// The `max_abs_diff` fold swallows NaN (`f64::max(0.0, NaN) == 0.0`);
    /// `compare` must surface it instead.
    #[test]
    fn compare_reports_nan_that_max_abs_diff_swallows() {
        let mut m1 = GlobalMemory::default();
        m1.arrays
            .insert("a".into(), DeviceArray::new(info("a", vec![8])));
        let mut m2 = m1.clone();
        m2.get_mut("a").unwrap().data[5] = f64::NAN;
        assert_eq!(m1.max_abs_diff(&m2)["a"], 0.0, "the historical blind spot");
        let d = m1.compare(&m2)["a"];
        assert!(d.has_nan);
        assert_eq!(d.max_abs_diff, 0.0);
        // NaN on the *left* side is caught too.
        let d2 = m2.compare(&m1)["a"];
        assert!(d2.has_nan);
    }
}
