//! Related-machines platform descriptions.
//!
//! The paper analyses `m` *identical* machines running at a single
//! augmentation speed `s`. The related-machines extension (bag-of-tasks on
//! related machines, Gupta–Kumar–Singla 2021; precedence constraints on
//! related machines, Maiti et al. 2020) replaces that scalar with a small
//! set of **machine groups**: `g` groups, group `i` holding `count_i`
//! processors that all run at speed `speed_i`.
//!
//! Exactness is preserved by generalising the single-speed scaling trick
//! (see [`Speed`]): with per-group speeds `num_i/den_i`, every node's work is
//! multiplied by `scale = lcm(den_0, …, den_{g−1})` and a group-`i`
//! processor then completes `units_i = num_i · scale/den_i` scaled units per
//! tick — an integer by construction. A single group degenerates to exactly
//! the scalar numbers (`scale = den`, `units = num`), which is what makes
//! the uniform case byte-identical to the legacy scalar engine path.
//!
//! Group order is part of the description: processors are laid out group 0
//! first, and all engine tie-breaks involving groups order by ascending
//! group index.

use crate::error::SchedError;
use crate::speed::Speed;
use std::fmt;
use std::str::FromStr;

/// The most processors a platform or an instance may have.
///
/// Processor counts come from user input (instance files, `--groups`
/// specs), and the engine lays out one entry per processor, so the bound
/// caps an allocation an input can ask for. It is far above every machine
/// the experiments use.
pub const MAX_PROCESSORS: u32 = 1 << 16;

/// One homogeneous slice of the platform: `count` processors at `speed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineGroup {
    /// Number of processors in the group (positive).
    pub count: u32,
    /// Speed every processor in the group runs at.
    pub speed: Speed,
}

/// An ordered list of machine groups describing a related-machines platform.
///
/// Invariants (checked at construction): at least one group, every count
/// positive, at most [`MAX_PROCESSORS`] processors in total, and the
/// combined work scale / per-group units fit in `u64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineGroups {
    groups: Vec<MachineGroup>,
    /// `lcm` of the group denominators: the factor every node's work is
    /// multiplied by so per-tick progress is integral for *all* groups.
    scale: u64,
    /// Scaled units a single processor of each group completes per tick.
    units: Vec<u64>,
    total: u32,
}

impl MachineGroups {
    /// Build a platform description from `(count, speed)` pairs.
    ///
    /// # Errors
    /// [`SchedError::InvalidInstance`] if the list is empty, any count is
    /// zero, the total processor count exceeds [`MAX_PROCESSORS`], or the
    /// combined work scale overflows `u64`.
    pub fn new(pairs: impl IntoIterator<Item = (u32, Speed)>) -> Result<MachineGroups, SchedError> {
        let groups: Vec<MachineGroup> = pairs
            .into_iter()
            .map(|(count, speed)| MachineGroup { count, speed })
            .collect();
        if groups.is_empty() {
            return Err(SchedError::InvalidInstance(
                "machine groups: at least one group required".into(),
            ));
        }
        let mut total: u32 = 0;
        let mut scale: u64 = 1;
        for g in &groups {
            if g.count == 0 {
                return Err(SchedError::InvalidInstance(
                    "machine groups: group count must be positive".into(),
                ));
            }
            total = total
                .checked_add(g.count)
                .filter(|&t| t <= MAX_PROCESSORS)
                .ok_or_else(|| {
                    SchedError::InvalidInstance(format!(
                        "machine groups: more than {MAX_PROCESSORS} processors"
                    ))
                })?;
            scale = lcm(scale, g.speed.work_scale()).ok_or_else(|| {
                SchedError::InvalidInstance("machine groups: work scale overflows u64".into())
            })?;
        }
        let mut units = Vec::with_capacity(groups.len());
        for g in &groups {
            // `scale` is a multiple of this group's denominator by
            // construction, so the division is exact.
            let per_den = scale / g.speed.work_scale();
            let u = g
                .speed
                .units_per_tick()
                .checked_mul(per_den)
                .ok_or_else(|| {
                    SchedError::InvalidInstance(
                        "machine groups: per-tick units overflow u64".into(),
                    )
                })?;
            units.push(u);
        }
        Ok(MachineGroups {
            groups,
            scale,
            units,
            total,
        })
    }

    /// The uniform platform: one group of `m` processors at `speed` — the
    /// paper's original model, expressed in the group vocabulary.
    pub fn uniform(m: u32, speed: Speed) -> Result<MachineGroups, SchedError> {
        MachineGroups::new([(m, speed)])
    }

    /// The groups, in declaration (= processor layout) order.
    #[inline]
    pub fn groups(&self) -> &[MachineGroup] {
        &self.groups
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Always false (construction rejects empty lists); included so the
    /// conventional `len`/`is_empty` pair is complete.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total processor count across all groups.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The factor every node's work is multiplied by (lcm of denominators).
    #[inline]
    pub fn work_scale(&self) -> u64 {
        self.scale
    }

    /// Scaled units one processor of group `g` completes per tick.
    #[inline]
    pub fn units(&self, g: usize) -> u64 {
        self.units[g]
    }

    /// Per-group per-processor units, indexed by group.
    #[inline]
    pub fn units_per_group(&self) -> &[u64] {
        &self.units
    }

    /// `Some(speed)` iff every group runs at the same speed (the platform is
    /// effectively the paper's identical-machines model).
    pub fn uniform_speed(&self) -> Option<Speed> {
        let s = self.groups[0].speed;
        self.groups.iter().all(|g| g.speed == s).then_some(s)
    }

    /// True iff all groups share one speed.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.uniform_speed().is_some()
    }

    /// The same platform shape with every group's speed multiplied by `by` —
    /// resource augmentation applied uniformly across a heterogeneous
    /// platform (how the sweep's speed axis composes with its shape axis).
    ///
    /// # Errors
    /// [`SchedError::InvalidInstance`] if a product overflows `u32` or the
    /// scaled platform violates a construction invariant.
    pub fn scaled(&self, by: Speed) -> Result<MachineGroups, SchedError> {
        let overflow =
            || SchedError::InvalidInstance("machine groups: scaled speed overflows u32".into());
        let mut pairs = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            let num = g.speed.num().checked_mul(by.num()).ok_or_else(overflow)?;
            let den = g.speed.den().checked_mul(by.den()).ok_or_else(overflow)?;
            pairs.push((g.count, Speed::new(num, den)?));
        }
        MachineGroups::new(pairs)
    }
}

impl fmt::Display for MachineGroups {
    /// Round-trips with [`FromStr`]: `4x1,2x2`, `3x3/2,1x1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            if g.speed.den() == 1 {
                write!(f, "{}x{}", g.count, g.speed.num())?;
            } else {
                write!(f, "{}x{}/{}", g.count, g.speed.num(), g.speed.den())?;
            }
        }
        Ok(())
    }
}

impl FromStr for MachineGroups {
    type Err = SchedError;

    /// Parse a `<count>x<speed>[,<count>x<speed>…]` spec, e.g. `4x1,2x2`
    /// (four unit-speed machines plus two double-speed machines) or
    /// `2x3/2` (two machines at speed 3/2). `+` is accepted as an
    /// alternative separator for contexts where commas are awkward (CSV).
    fn from_str(s: &str) -> Result<MachineGroups, SchedError> {
        let bad = |part: &str| {
            SchedError::InvalidInstance(format!(
                "machine groups: bad component {part:?} (want <count>x<num>[/<den>])"
            ))
        };
        let mut pairs = Vec::new();
        for part in s.split([',', '+']) {
            let part = part.trim();
            let (count, speed) = part.split_once('x').ok_or_else(|| bad(part))?;
            let count: u32 = count.trim().parse().map_err(|_| bad(part))?;
            let speed = match speed.trim().split_once('/') {
                Some((n, d)) => Speed::new(
                    n.trim().parse().map_err(|_| bad(part))?,
                    d.trim().parse().map_err(|_| bad(part))?,
                )?,
                None => Speed::integer(speed.trim().parse().map_err(|_| bad(part))?)?,
            };
            pairs.push((count, speed));
        }
        MachineGroups::new(pairs)
    }
}

/// Ticks a processor completing `units` scaled work units per tick needs to
/// finish `rem` remaining scaled units: `ceil(rem/units)`.
///
/// This is the single audited implementation of the completion-distance
/// arithmetic used by the engine's claim loop; it
/// replaces the ad-hoc `div_ceil` call sites that predated machine groups.
///
/// # Panics
/// If `units == 0` — a zero-speed processor never finishes, and every
/// constructed [`Speed`]/[`MachineGroups`] guarantees positive units, so a
/// zero here is an engine bug worth failing loudly on.
#[inline]
pub fn ticks_to_complete(rem: u64, units: u64) -> u64 {
    assert!(units > 0, "ticks_to_complete: zero units per tick");
    rem.div_ceil(units)
}

/// Multiply a node's work by the platform work scale, checked.
///
/// # Errors
/// [`SchedError::InvalidInstance`] if the product overflows `u64` — the
/// instance's work values are incompatible with this platform's scale.
#[inline]
pub fn scale_work(work: u64, scale: u64) -> Result<u64, SchedError> {
    work.checked_mul(scale).ok_or_else(|| {
        SchedError::InvalidInstance(format!(
            "scaled work overflows u64 (work {work} × scale {scale})"
        ))
    })
}

/// Least common multiple with overflow detection (`None` on overflow).
fn lcm(a: u64, b: u64) -> Option<u64> {
    // a, b ≥ 1 here (work scales are positive).
    let g = gcd(a, b);
    (a / g).checked_mul(b)
}

/// Greatest common divisor (Euclid; inputs are nonzero here).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_degenerates_to_scalar_numbers() {
        // speed 3/2 as one group: scale and units match Speed's exactly.
        let s = Speed::new(3, 2).unwrap();
        let g = MachineGroups::uniform(4, s).unwrap();
        assert_eq!(g.total(), 4);
        assert_eq!(g.work_scale(), s.work_scale());
        assert_eq!(g.units(0), s.units_per_tick());
        assert_eq!(g.uniform_speed(), Some(s));
        assert!(g.is_uniform());
    }

    #[test]
    fn heterogeneous_scale_is_lcm_and_units_are_exact() {
        // Speeds 3/2 and 5/3: scale = lcm(2,3) = 6; units 3·3=9 and 5·2=10.
        let g = MachineGroups::new([
            (2, Speed::new(3, 2).unwrap()),
            (1, Speed::new(5, 3).unwrap()),
        ])
        .unwrap();
        assert_eq!(g.work_scale(), 6);
        assert_eq!(g.units_per_group(), &[9, 10]);
        assert_eq!(g.total(), 3);
        assert_eq!(g.uniform_speed(), None);
        // Cross-check: units/scale reproduces the rational speed.
        assert!((g.units(0) as f64 / 6.0 - 1.5).abs() < 1e-12);
        assert!((g.units(1) as f64 / 6.0 - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multi_group_same_speed_is_still_uniform() {
        let g = MachineGroups::new([(4, Speed::ONE), (2, Speed::ONE)]).unwrap();
        assert_eq!(g.uniform_speed(), Some(Speed::ONE));
        assert_eq!(g.total(), 6);
    }

    #[test]
    fn scaled_multiplies_every_group_and_reduces() {
        let g: MachineGroups = "4x1,2x2".parse().unwrap();
        let s = g.scaled(Speed::new(3, 2).unwrap()).unwrap();
        assert_eq!(s.to_string(), "4x3/2,2x3");
        assert_eq!(s.total(), g.total());
        // Scaling by one is the identity.
        assert_eq!(g.scaled(Speed::ONE).unwrap(), g);
        // Overflow is an error, not a wrap.
        let big = MachineGroups::uniform(1, Speed::integer(u32::MAX).unwrap()).unwrap();
        assert!(big.scaled(Speed::integer(2).unwrap()).is_err());
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(MachineGroups::new(std::iter::empty()).is_err());
        assert!(MachineGroups::new([(0, Speed::ONE)]).is_err());
        assert!(MachineGroups::new([(u32::MAX, Speed::ONE), (1, Speed::ONE)]).is_err());
    }

    #[test]
    fn processor_counts_above_the_bound_are_rejected() {
        assert_eq!(
            MachineGroups::uniform(MAX_PROCESSORS, Speed::ONE)
                .unwrap()
                .total(),
            MAX_PROCESSORS
        );
        for spec in ["4294967295x1", "65537x1", "65536x1,1x2"] {
            assert!(
                matches!(
                    spec.parse::<MachineGroups>(),
                    Err(SchedError::InvalidInstance(_))
                ),
                "accepted {spec:?}"
            );
        }
    }

    #[test]
    fn scale_overflow_is_an_error_not_a_wrap() {
        // Pairwise-coprime huge denominators push the lcm past u64.
        let big = |d| Speed::new(1, d).unwrap();
        let r = MachineGroups::new([
            (1, big(4_294_967_291)), // prime
            (1, big(4_294_967_279)), // prime
            (1, big(4_294_967_231)), // prime
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn display_and_parse_round_trip() {
        for spec in ["4x1", "4x1,2x2", "2x3/2,1x5/3", "8x2"] {
            let g: MachineGroups = spec.parse().unwrap();
            assert_eq!(g.to_string(), spec);
        }
        // `+` separator (CSV-friendly) parses to the same platform.
        let a: MachineGroups = "4x1+2x2".parse().unwrap();
        let b: MachineGroups = "4x1,2x2".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "", "4", "x1", "4x", "4x0", "0x1", "4x1,,2x2", "4x1/0", "ax1",
        ] {
            assert!(spec.parse::<MachineGroups>().is_err(), "accepted {spec:?}");
        }
    }

    #[test]
    fn ticks_to_complete_matches_div_ceil() {
        assert_eq!(ticks_to_complete(0, 3), 0);
        assert_eq!(ticks_to_complete(1, 3), 1);
        assert_eq!(ticks_to_complete(3, 3), 1);
        assert_eq!(ticks_to_complete(4, 3), 2);
        // No intermediate overflow even at the top of the range.
        assert_eq!(ticks_to_complete(u64::MAX, 1), u64::MAX);
        assert_eq!(ticks_to_complete(u64::MAX, u64::MAX), 1);
        assert_eq!(ticks_to_complete(u64::MAX - 1, u64::MAX), 1);
    }

    #[test]
    #[should_panic(expected = "zero units")]
    fn ticks_to_complete_rejects_zero_units() {
        ticks_to_complete(1, 0);
    }

    #[test]
    fn scale_work_checks_overflow() {
        assert_eq!(scale_work(6, 2).unwrap(), 12);
        assert_eq!(scale_work(0, u64::MAX).unwrap(), 0);
        assert_eq!(scale_work(u64::MAX, 1).unwrap(), u64::MAX);
        assert!(scale_work(u64::MAX, 2).is_err());
        assert!(scale_work(1 << 62, 8).is_err());
    }
}
