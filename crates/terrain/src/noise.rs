//! Seeded, hash-based value noise and fractal Brownian motion (fBm).
//!
//! The terrain model needs a smooth pseudo-random field that is (a) fully
//! deterministic given a seed, (b) cheap to evaluate at arbitrary points
//! without storing a raster, and (c) free of external dependencies. Classic
//! lattice value noise with quintic smoothing fits the bill. Perlin gradient
//! noise would look marginally nicer but feasibility statistics only care
//! about amplitude and correlation length, not visual aesthetics.
//!
//! Two evaluators share one interpolation expression: [`value_noise`] at a
//! point, and [`value_noise_range`], the exact extrema of one octave over a
//! rectangle, which the obstruction envelope's cell bounds are built from.
//! The range evaluates the same blend at every point of a grid split at the
//! lattice lines, reading each lattice corner from a table hashed once per
//! call (neighbouring split points share corners, so a point-by-point
//! evaluation hashed most corners two to four times), and both floor their
//! coordinates with an exact integer floor instead of `f64::floor`, a
//! library call on targets without SSE4.1. `value_noise` stays the oracle:
//! a unit test checks the range, bit for bit, against it at every split
//! point of random rectangles.

/// A deterministic 64-bit mixer (SplitMix64 finaliser). Used to hash lattice
/// coordinates plus the seed into pseudo-random values.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a 2-D integer lattice point and a hashed seed (`mix64(seed)`, taken
/// once per [`value_noise`] call rather than once per corner) to a float in
/// `[0, 1)`.
#[inline]
fn lattice_value(ix: i64, iy: i64, seed_hash: u64) -> f64 {
    let h = mix64(
        (ix as u64)
            .wrapping_mul(0x8545_9F85_C592_9F3B)
            .wrapping_add((iy as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(seed_hash),
    );
    // Take the top 53 bits for a uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Quintic smoothstep used to interpolate lattice values (C² continuous).
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// `x.floor() as i64`, exactly, from a truncating conversion and one
/// comparison. The truncation is exact wherever it does not saturate (an
/// `f64` of magnitude `>= 2^52` is already an integer, and a smaller one
/// truncates to an integer `f64` holds exactly), and it rounds towards zero,
/// so it is one above the floor exactly when it lies above `x`. NaN gives 0
/// and the saturated ends stay saturated, as the `as` cast of the floor
/// does. `f64::floor` is a library call on targets without SSE4.1, and the
/// noise kernels floor every coordinate they see.
#[inline]
fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(i64::from(t as f64 > x))
}

/// The bilinear blend of one lattice cell's corner values `v00`, `v10`,
/// `v01`, `v11` at smoothed offsets `(sx, sy)`: the one expression
/// [`value_noise`] and [`value_noise_range`] evaluate.
#[inline]
fn blend(v00: f64, v10: f64, v01: f64, v11: f64, sx: f64, sy: f64) -> f64 {
    let a = v00 + (v10 - v00) * sx;
    let b = v01 + (v11 - v01) * sx;
    a + (b - a) * sy
}

/// Single-octave 2-D value noise in `[0, 1]`, with unit lattice spacing.
pub fn value_noise(x: f64, y: f64, seed: u64) -> f64 {
    let ix = floor_i64(x);
    let iy = floor_i64(y);
    let fx = x - ix as f64;
    let fy = y - iy as f64;

    let seed_hash = mix64(seed);
    let v00 = lattice_value(ix, iy, seed_hash);
    let v10 = lattice_value(ix + 1, iy, seed_hash);
    let v01 = lattice_value(ix, iy + 1, seed_hash);
    let v11 = lattice_value(ix + 1, iy + 1, seed_hash);

    blend(v00, v10, v01, v11, smooth(fx), smooth(fy))
}

/// Parameters for fractal Brownian motion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FbmParams {
    /// Number of octaves to sum.
    pub octaves: u32,
    /// Spatial frequency of the first octave (cycles per unit distance).
    pub base_frequency: f64,
    /// Frequency multiplier between octaves (usually ~2).
    pub lacunarity: f64,
    /// Amplitude multiplier between octaves (usually ~0.5).
    pub gain: f64,
}

impl Default for FbmParams {
    fn default() -> Self {
        Self {
            octaves: 5,
            base_frequency: 1.0,
            lacunarity: 2.0,
            gain: 0.5,
        }
    }
}

/// The `(octave index, amplitude, frequency)` schedule shared by [`fbm`],
/// [`ridged`] and their range bounds, so a bound always covers the octaves
/// the sampled function sums.
fn octaves(params: FbmParams) -> impl Iterator<Item = (u64, f64, f64)> {
    assert!(params.octaves >= 1, "fBm needs at least one octave");
    let mut amplitude = 1.0;
    let mut frequency = params.base_frequency;
    (0..u64::from(params.octaves)).map(move |octave| {
        let item = (octave, amplitude, frequency);
        amplitude *= params.gain;
        frequency *= params.lacunarity;
        item
    })
}

#[inline]
fn fbm_octave_seed(seed: u64, octave: u64) -> u64 {
    seed.wrapping_add(0x9E37 * octave + 1)
}

#[inline]
fn ridged_octave_seed(seed: u64, octave: u64) -> u64 {
    seed.wrapping_add(0xC0FFEE * (octave + 1))
}

/// Fractal Brownian motion: a sum of value-noise octaves, normalised to
/// `[0, 1]`.
pub(crate) fn fbm(x: f64, y: f64, seed: u64, params: FbmParams) -> f64 {
    let mut total = 0.0;
    let mut max_amplitude = 0.0;
    for (octave, amplitude, frequency) in octaves(params) {
        let n = value_noise(x * frequency, y * frequency, fbm_octave_seed(seed, octave));
        total += amplitude * n;
        max_amplitude += amplitude;
    }
    total / max_amplitude
}

/// Ridged multifractal noise in `[0, 1]`: sharp crests, useful for mountain
/// ridge crest variation.
pub(crate) fn ridged(x: f64, y: f64, seed: u64, params: FbmParams) -> f64 {
    let mut total = 0.0;
    let mut max_amplitude = 0.0;
    for (octave, amplitude, frequency) in octaves(params) {
        let n = value_noise(
            x * frequency,
            y * frequency,
            ridged_octave_seed(seed, octave),
        );
        let r = 1.0 - (2.0 * n - 1.0).abs(); // fold around the midpoint
        total += amplitude * r * r;
        max_amplitude += amplitude;
    }
    total / max_amplitude
}

/// Widest rectangle, in lattice cells per axis, that [`value_noise_range`]
/// splits exactly; beyond it the trivial `[0, 1]` range is returned so the
/// cost of one call stays bounded whatever frequency a model is given.
const MAX_EXACT_SPAN: f64 = 8.0;

/// Most lattice lines [`value_noise_range`] reads corner values on, per
/// axis: a span of at most `MAX_EXACT_SPAN` (it may exceed it by the
/// rounding of the width test) covers at most `MAX_EXACT_SPAN + 1` floors,
/// and the last floor's cell reaches one line further.
const CORNER_LINES: usize = MAX_EXACT_SPAN as usize + 3;

/// One axis of [`value_noise_range`]'s split grid: `a`, every integer
/// strictly between `a` and `b`, then `b` (`a <= b`), each as the lattice
/// line it floors to, counted from `floor(a)`, and its smoothed offset from
/// that line — exactly the `ix` (less `floor(a)`) and `smooth(fx)` that
/// [`value_noise`] computes at that coordinate. Returns the number of
/// points; every line index is below `CORNER_LINES - 1`.
fn split_axis(a: f64, b: f64, out: &mut [(usize, f64); CORNER_LINES]) -> usize {
    let base = floor_i64(a);
    let mut n = 0;
    let mut push = |v: f64| {
        let i = floor_i64(v);
        out[n] = ((i - base) as usize, smooth(v - i as f64));
        n += 1;
    };
    push(a);
    let mut k = base + 1;
    while (k as f64) < b {
        push(k as f64);
        k += 1;
    }
    push(b);
    n
}

/// Exact `(min, max)` of [`value_noise`] over the closed rectangle
/// `x × y` (either order of each pair's ends).
///
/// Inside one lattice cell `value_noise` is bilinear in the smoothed
/// coordinates `(smooth(fx), smooth(fy))`, and `smooth` is monotone on
/// `[0, 1]`, so a sub-rectangle that stays inside one cell maps to a
/// rectangle in smoothed coordinates. A bilinear function is linear along
/// every axis-parallel line, hence its extrema over a rectangle sit at the
/// four corners. Splitting the query at every lattice line it crosses
/// yields such sub-rectangles; the field is continuous across lattice lines
/// (weight 1 on one side is weight 0 on the other, same lattice values), so
/// the corner on a line may be evaluated from either cell. The extrema are
/// therefore the min and max of `value_noise` over the split grid's points.
/// Rounding in the interpolation can push a sampled value past the returned
/// range by a few ulps of 1.0; callers absorb that in their own slack.
///
/// Neighbouring split points share lattice corners, so each corner the grid
/// reads is hashed once into a table, and each point is then the blend
/// `value_noise` evaluates there, from the same corner values in the same
/// expression: the result is the min and max of `value_noise` over the
/// split points, bit for bit.
pub fn value_noise_range(x: (f64, f64), y: (f64, f64), seed: u64) -> (f64, f64) {
    let (x0, x1) = (x.0.min(x.1), x.0.max(x.1));
    let (y0, y1) = (y.0.min(y.1), y.0.max(y.1));
    let ends_finite = [x.0, x.1, y.0, y.1].into_iter().all(f64::is_finite);
    if !ends_finite || x1 - x0 > MAX_EXACT_SPAN || y1 - y0 > MAX_EXACT_SPAN {
        return (0.0, 1.0);
    }
    let mut xs = [(0, 0.0); CORNER_LINES];
    let mut ys = [(0, 0.0); CORNER_LINES];
    let (nx, ny) = (split_axis(x0, x1, &mut xs), split_axis(y0, y1, &mut ys));
    // Corner values on the lines the points read: `cols` lines from
    // `floor(x0)` by `rows` lines from `floor(y0)`, row-major.
    let (cols, rows) = (xs[nx - 1].0 + 2, ys[ny - 1].0 + 2);
    let (ix0, iy0) = (floor_i64(x0), floor_i64(y0));
    let seed_hash = mix64(seed);
    // Most rectangles cross at most one lattice line per axis: their table
    // fits a small array, which is cheaper to set up than the largest.
    let mut small = [0.0; 16];
    let mut large;
    let corners: &mut [f64] = if rows * cols <= small.len() {
        &mut small
    } else {
        large = [0.0; CORNER_LINES * CORNER_LINES];
        &mut large
    };
    for row in 0..rows {
        for col in 0..cols {
            corners[row * cols + col] =
                lattice_value(ix0 + col as i64, iy0 + row as i64, seed_hash);
        }
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &(col, sx) in &xs[..nx] {
        for &(row, sy) in &ys[..ny] {
            let c = row * cols + col;
            let v = blend(
                corners[c],
                corners[c + 1],
                corners[c + cols],
                corners[c + cols + 1],
                sx,
                sy,
            );
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// [`value_noise_range`] of one octave over the rectangle `x × y` of
/// unscaled coordinates. The octave's coordinate interval is the image of
/// the ends under the same `coordinate * frequency` product [`fbm`] and
/// [`ridged`] form; floating-point multiplication by a constant is
/// monotone, so every sampled product lies between the two.
fn octave_range(x: (f64, f64), y: (f64, f64), frequency: f64, octave_seed: u64) -> (f64, f64) {
    value_noise_range(
        (x.0 * frequency, x.1 * frequency),
        (y.0 * frequency, y.1 * frequency),
        octave_seed,
    )
}

/// Bounds `(lo, hi)` on [`fbm`] over the rectangle `x × y`: the normalised
/// sums of the per-octave extrema. Requires `params.gain > 0` (amplitudes
/// keep their sign).
pub(crate) fn fbm_range(x: (f64, f64), y: (f64, f64), seed: u64, params: FbmParams) -> (f64, f64) {
    assert!(params.gain > 0.0, "range bounds need positive amplitudes");
    let (mut lo, mut hi, mut max_amplitude) = (0.0, 0.0, 0.0);
    for (octave, amplitude, frequency) in octaves(params) {
        let (n_lo, n_hi) = octave_range(x, y, frequency, fbm_octave_seed(seed, octave));
        lo += amplitude * n_lo;
        hi += amplitude * n_hi;
        max_amplitude += amplitude;
    }
    (lo / max_amplitude, hi / max_amplitude)
}

/// Upper bound on [`ridged`] over the rectangle `x × y`. An octave's fold
/// `r = 1 - |2n - 1|` peaks at `n = 0.5`, so its maximum over the octave's
/// noise range is 1 when the range straddles 0.5 and is attained at the end
/// nearer 0.5 otherwise. Requires `params.gain > 0`.
pub(crate) fn ridged_max(x: (f64, f64), y: (f64, f64), seed: u64, params: FbmParams) -> f64 {
    assert!(params.gain > 0.0, "range bounds need positive amplitudes");
    let (mut hi, mut max_amplitude) = (0.0, 0.0);
    for (octave, amplitude, frequency) in octaves(params) {
        let (n_lo, n_hi) = octave_range(x, y, frequency, ridged_octave_seed(seed, octave));
        let r = if n_lo <= 0.5 && 0.5 <= n_hi {
            1.0
        } else {
            1.0 - (2.0 * n_lo - 1.0).abs().min((2.0 * n_hi - 1.0).abs())
        };
        hi += amplitude * r * r;
        max_amplitude += amplitude;
    }
    hi / max_amplitude
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads_bits() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // A weak avalanche check: flipping one input bit flips many output bits.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn value_noise_in_unit_interval_and_deterministic() {
        for i in 0..200 {
            let x = i as f64 * 0.37;
            let y = i as f64 * 0.71 - 10.0;
            let v = value_noise(x, y, 7);
            assert!((0.0..=1.0).contains(&v), "noise out of range: {v}");
            assert_eq!(v, value_noise(x, y, 7));
        }
    }

    #[test]
    fn value_noise_depends_on_seed() {
        let mut differs = 0;
        for i in 0..50 {
            let x = i as f64 * 0.61;
            if (value_noise(x, 3.3, 1) - value_noise(x, 3.3, 2)).abs() > 1e-6 {
                differs += 1;
            }
        }
        assert!(
            differs > 40,
            "seeds should decorrelate noise ({differs}/50)"
        );
    }

    #[test]
    fn value_noise_is_continuous() {
        // Adjacent evaluations differ by a bounded amount.
        let eps = 1e-4;
        for i in 0..100 {
            let x = i as f64 * 0.131;
            let y = i as f64 * 0.377;
            let d = (value_noise(x + eps, y, 3) - value_noise(x, y, 3)).abs();
            assert!(d < 0.01, "discontinuity {d} at ({x}, {y})");
        }
    }

    #[test]
    fn value_noise_matches_lattice_at_integers() {
        // At integer coordinates the interpolation weights collapse to a
        // single lattice value, so the result must be that hash value.
        let v = value_noise(5.0, -3.0, 11);
        assert!((0.0..=1.0).contains(&v));
        assert_eq!(v, value_noise(5.0, -3.0, 11));
    }

    #[test]
    fn fbm_and_ridged_stay_in_range() {
        let params = FbmParams::default();
        for i in 0..200 {
            let x = i as f64 * 0.17 - 10.0;
            let y = i as f64 * 0.29 + 4.0;
            let f = fbm(x, y, 99, params);
            let r = ridged(x, y, 99, params);
            assert!((0.0..=1.0).contains(&f), "fbm {f}");
            assert!((0.0..=1.0).contains(&r), "ridged {r}");
        }
    }

    #[test]
    fn range_bounds_cover_sampled_values() {
        let params = FbmParams {
            base_frequency: 1.3,
            lacunarity: 2.1,
            ..FbmParams::default()
        };
        for (k, width) in [0.01, 0.05, 0.4, 2.5].into_iter().enumerate() {
            let x = (-7.3 + k as f64 * 3.1, -7.3 + k as f64 * 3.1 + width);
            let y = (4.9 - k as f64 * 1.7, 4.9 - k as f64 * 1.7 + 0.6 * width);
            let (lo, hi) = fbm_range(x, y, 99, params);
            let crest_hi = ridged_max(x, y, 99, params);
            assert!(0.0 <= lo && lo <= hi && hi <= 1.0 && crest_hi <= 1.0);
            for i in 0..=20 {
                for j in 0..=20 {
                    let px = x.0 + (x.1 - x.0) * i as f64 / 20.0;
                    let py = y.0 + (y.1 - y.0) * j as f64 / 20.0;
                    let f = fbm(px, py, 99, params);
                    assert!(
                        lo - 1e-12 <= f && f <= hi + 1e-12,
                        "fbm {f} vs [{lo}, {hi}]"
                    );
                    let r = ridged(px, py, 99, params);
                    assert!(r <= crest_hi + 1e-12, "ridged {r} vs {crest_hi}");
                }
            }
        }
        // A rectangle too wide to split, or not finite, gets the trivial range.
        assert_eq!(value_noise_range((0.0, 100.0), (0.0, 1.0), 3), (0.0, 1.0));
        assert_eq!(
            value_noise_range((f64::NAN, 1.0), (0.0, 1.0), 3),
            (0.0, 1.0)
        );
    }

    /// The floats one ulp below and one ulp above `x`.
    fn ulp_neighbours(x: f64) -> [f64; 2] {
        [x.next_down(), x.next_up()]
    }

    #[test]
    fn integer_floor_is_f64_floor() {
        let two_52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            -2.0,
            -1e-300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            two_52,
            -two_52,
            two_52 + 1.0,
            -two_52 - 1.0,
            0.5 * two_52 + 0.5,
            -(0.5 * two_52 + 0.5),
            9.3e18,
            -9.3e18,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in -40..=40 {
            let k = k as f64;
            xs.extend([k, k + 0.25, k - 0.75]);
            xs.extend(ulp_neighbours(k));
        }
        for x in xs.clone() {
            xs.extend(ulp_neighbours(x));
        }
        for x in xs {
            assert_eq!(floor_i64(x), x.floor() as i64, "floor of {x:e}");
        }
    }

    /// The range as the split grid's points give it through `value_noise`,
    /// the grid split with `f64::floor` and `f64::ceil`: the oracle of the
    /// corner-table kernel (the trivial range beyond the widest split).
    fn range_over_split_points(x: (f64, f64), y: (f64, f64), seed: u64) -> (f64, f64) {
        if (x.1 - x.0).abs() > MAX_EXACT_SPAN || (y.1 - y.0).abs() > MAX_EXACT_SPAN {
            return (0.0, 1.0);
        }
        let split = |a: f64, b: f64| -> Vec<f64> {
            let (a, b) = (a.min(b), a.max(b));
            let inner = (a.floor() as i64 + 1..=b.ceil() as i64 - 1).map(|k| k as f64);
            std::iter::once(a)
                .chain(inner)
                .chain(std::iter::once(b))
                .collect()
        };
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for sx in split(x.0, x.1) {
            for &sy in &split(y.0, y.1) {
                let v = value_noise(sx, sy, seed);
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }

    #[test]
    fn corner_table_range_is_the_split_point_range() {
        let mut draw = 0u64;
        let mut unit = || {
            draw += 1;
            (mix64(draw) >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..20_000u64 {
            // Ends anywhere, on a lattice line, or one ulp off one; widths up
            // to the widest split exactly, whole widths included.
            let [x0, y0] = [(); 2].map(|_| {
                let v = -60.0 + 120.0 * unit();
                match (unit() * 4.0) as u32 {
                    0 => v,
                    1 => v.round(),
                    2 => v.round().next_up(),
                    _ => v.round().next_down(),
                }
            });
            let [w, h] = [(); 2].map(|_| match (unit() * 5.0) as u32 {
                0 => 0.0,
                1 => (unit() * (MAX_EXACT_SPAN + 1.0))
                    .floor()
                    .min(MAX_EXACT_SPAN),
                2 => 1e-9 * unit(),
                _ => MAX_EXACT_SPAN * unit(),
            });
            let (x, y) = ((x0, x0 + w), (y0, y0 + h));
            let (x, y) = if case % 2 == 0 {
                (x, y)
            } else {
                ((x.1, x.0), (y.1, y.0))
            };
            let seed = mix64(case);
            let (lo, hi) = value_noise_range(x, y, seed);
            let (ref_lo, ref_hi) = range_over_split_points(x, y, seed);
            assert_eq!(
                (lo.to_bits(), hi.to_bits()),
                (ref_lo.to_bits(), ref_hi.to_bits()),
                "{x:?} × {y:?}, seed {seed}"
            );
        }
        // The widest exact span on both axes, from a lattice line and off it.
        for (x0, y0) in [(-4.0, 3.0), (-4.5, 3.25), (0.0, -8.0)] {
            let x = (x0, x0 + MAX_EXACT_SPAN);
            let y = (y0, y0 + MAX_EXACT_SPAN);
            assert_eq!(value_noise_range(x, y, 9), range_over_split_points(x, y, 9));
        }
    }

    #[test]
    fn fbm_octaves_add_detail() {
        // With more octaves the field has more high-frequency variance; test
        // indirectly by checking the two parameterisations differ.
        let one = FbmParams {
            octaves: 1,
            ..FbmParams::default()
        };
        let five = FbmParams::default();
        let mut diff = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.123;
            diff += (fbm(x, 0.5, 5, one) - fbm(x, 0.5, 5, five)).abs();
        }
        assert!(diff > 0.1);
    }

    #[test]
    #[should_panic]
    fn fbm_rejects_zero_octaves() {
        fbm(
            0.0,
            0.0,
            1,
            FbmParams {
                octaves: 0,
                ..FbmParams::default()
            },
        );
    }
}
