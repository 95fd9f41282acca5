//! Zones: axis-aligned half-open boxes on the unit torus.
//!
//! All splits are exact binary halvings, so every coordinate is a
//! dyadic rational representable exactly in `f64` — equality tests on
//! borders are therefore exact, not approximate.

use hieras_rt::{FromJson, Json, JsonError, ToJson};

/// An axis-aligned half-open box `[lo, hi)` per dimension inside the
/// unit torus `[0,1)^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// Inclusive lower corner.
    pub lo: Vec<f64>,
    /// Exclusive upper corner.
    pub hi: Vec<f64>,
}

impl Zone {
    /// The whole unit space of dimension `dims`.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn whole(dims: usize) -> Self {
        assert!(dims > 0, "CAN needs at least one dimension");
        Zone { lo: vec![0.0; dims], hi: vec![1.0; dims] }
    }

    /// Dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// True if `p` lies in this zone.
    #[must_use]
    pub fn contains(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(&x, (&lo, &hi))| x >= lo && x < hi)
    }

    /// Side length along `dim`.
    #[must_use]
    pub fn extent(&self, dim: usize) -> f64 {
        self.hi[dim] - self.lo[dim]
    }

    /// Volume of the box.
    #[must_use]
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.extent(d)).product()
    }

    /// The center point.
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        self.lo.iter().zip(self.hi.iter()).map(|(&l, &h)| (l + h) / 2.0).collect()
    }

    /// Splits in half along the longest dimension (ties: lowest index),
    /// returning `(lower_half, upper_half)` — the classic CAN split.
    #[must_use]
    pub fn split(&self) -> (Zone, Zone) {
        // Strictly-greater comparison keeps the lowest index on ties
        // (`Iterator::max_by` would keep the last).
        let mut dim = 0;
        for d in 1..self.dims() {
            if self.extent(d) > self.extent(dim) {
                dim = d;
            }
        }
        let mid = (self.lo[dim] + self.hi[dim]) / 2.0;
        let mut lower = self.clone();
        let mut upper = self.clone();
        lower.hi[dim] = mid;
        upper.lo[dim] = mid;
        (lower, upper)
    }

    /// Torus distance from a point to this box: 0 if inside, otherwise
    /// the Euclidean distance accounting for wraparound per dimension.
    #[must_use]
    pub fn torus_distance(&self, p: &[f64]) -> f64 {
        let mut sum = 0.0;
        for ((&x, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            let dd = if x >= lo && x < hi {
                0.0
            } else {
                // Distance to the interval, directly or around the torus.
                let direct = if x < lo { lo - x } else { x - hi };
                let wrap = if x < lo { x + 1.0 - hi } else { lo + 1.0 - x };
                direct.min(wrap)
            };
            sum += dd * dd;
        }
        sum.sqrt()
    }

    /// True if `self` and `other` are CAN neighbours on the torus:
    /// their intervals *abut* in exactly one dimension and *overlap*
    /// (positive measure) in every other.
    #[must_use]
    pub fn is_neighbor(&self, other: &Zone) -> bool {
        let mut abut = 0usize;
        for d in 0..self.dims() {
            let (al, ah) = (self.lo[d], self.hi[d]);
            let (bl, bh) = (other.lo[d], other.hi[d]);
            let touches = ah == bl || bh == al || (ah == 1.0 && bl == 0.0) || (bh == 1.0 && al == 0.0);
            let overlaps = al < bh && bl < ah;
            if overlaps {
                continue;
            }
            if touches {
                abut += 1;
                if abut > 1 {
                    return false;
                }
                continue;
            }
            return false; // disjoint and not touching in this dim
        }
        abut == 1
    }
}

impl ToJson for Zone {
    fn to_json(&self) -> Json {
        Json::obj([("lo", self.lo.to_json()), ("hi", self.hi.to_json())])
    }
}

impl FromJson for Zone {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let z = Zone { lo: v.field("lo")?, hi: v.field("hi")? };
        if z.lo.is_empty() || z.lo.len() != z.hi.len() {
            return Err(JsonError("zone corners must be non-empty and equal-length".into()));
        }
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_contains_everything_in_unit_box() {
        let z = Zone::whole(3);
        assert!(z.contains(&[0.0, 0.5, 0.999]));
        assert!(!z.contains(&[1.0, 0.5, 0.5]));
        assert_eq!(z.volume(), 1.0);
        assert_eq!(z.center(), vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn split_halves_longest_dimension() {
        let z = Zone::whole(2);
        let (a, b) = z.split(); // splits dim 0 (tie → lowest index)
        assert_eq!(a.hi[0], 0.5);
        assert_eq!(b.lo[0], 0.5);
        assert_eq!(a.volume() + b.volume(), 1.0);
        // Second-generation split goes along dim 1.
        let (c, d) = a.split();
        assert_eq!(c.hi[1], 0.5);
        assert_eq!(d.lo[1], 0.5);
    }

    #[test]
    fn contains_respects_half_open_borders() {
        let (a, b) = Zone::whole(1).split();
        assert!(a.contains(&[0.4999]));
        assert!(!a.contains(&[0.5]));
        assert!(b.contains(&[0.5]));
    }

    #[test]
    fn torus_distance_inside_is_zero_and_wraps() {
        let (a, b) = Zone::whole(1).split(); // [0,0.5) and [0.5,1)
        assert_eq!(a.torus_distance(&[0.25]), 0.0);
        assert!((a.torus_distance(&[0.6]) - 0.1).abs() < 1e-12);
        // 0.95 is 0.05 from [0,0.5) around the wrap, not 0.45 direct.
        assert!((a.torus_distance(&[0.95]) - 0.05).abs() < 1e-12);
        assert_eq!(b.torus_distance(&[0.99]), 0.0);
    }

    #[test]
    fn neighbors_abut_in_one_dim_and_overlap_elsewhere() {
        let (left, right) = Zone::whole(2).split();
        assert!(left.is_neighbor(&right));
        // They also wrap around the torus — but that is the same single
        // abutting dimension; still neighbours.
        let (ll, lr) = left.split(); // split along dim 1
        let (rl, rr) = right.split();
        assert!(ll.is_neighbor(&lr));
        assert!(ll.is_neighbor(&rl));
        // Diagonal: corners touch but intervals only touch in both dims.
        assert!(!ll.is_neighbor(&rr) || ll.is_neighbor(&rr) == rr.is_neighbor(&ll));
        assert_eq!(ll.is_neighbor(&rr), rr.is_neighbor(&ll));
    }

    #[test]
    fn torus_wrap_neighbors() {
        // [0,0.25) and [0.75,1) in 1-D abut around the wrap.
        let (a0, b0) = Zone::whole(1).split();
        let (a, _) = a0.split(); // [0,0.25)
        let (_, b) = b0.split(); // [0.75,1)
        assert!(a.is_neighbor(&b));
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_rejected() {
        let _ = Zone::whole(0);
    }
}
