//! A minimal grayscale image container shared by the SSIM and Pratt
//! metrics and by the image-producing workloads (SRAD, RayTracing).

/// A row-major grayscale image with `f64` samples.
///
/// ```
/// use ihw_quality::GrayImage;
///
/// let img = GrayImage::from_fn(4, 4, |x, y| (x + y) as f64);
/// assert_eq!(img.get(3, 3), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl GrayImage {
    /// Creates a zero-filled image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        GrayImage {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Builds an image from a per-pixel function `f(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<f64>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(
            data.len(),
            width * height,
            "buffer size must match dimensions"
        );
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Mutable pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = v;
    }

    /// The raw row-major sample buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Minimum and maximum sample values.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Serialises the image as a binary PGM (P5) with samples scaled
    /// from `[lo, hi]` to 8 bits — the portable format the repro harness
    /// writes for the paper's image figures.
    pub fn to_pgm(&self) -> Vec<u8> {
        let (lo, hi) = self.min_max();
        let span = (hi - lo).max(1e-12);
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(
            self.data
                .iter()
                .map(|&v| (((v - lo) / span) * 255.0).round() as u8),
        );
        out
    }

    /// Writes the image as a PGM file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_pgm(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_pgm())
    }

    /// Applies Sobel gradient-magnitude thresholding, producing the binary
    /// edge map used by the SRAD quality evaluation (Figure 16).
    ///
    /// `threshold` is compared against the gradient magnitude
    /// `√(Gx² + Gy²)`; border pixels are never edges.
    pub fn sobel_edges(&self, threshold: f64) -> Vec<bool> {
        let (w, h) = (self.width, self.height);
        let mut edges = vec![false; w * h];
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let p = |dx: isize, dy: isize| {
                    self.data[(y as isize + dy) as usize * w + (x as isize + dx) as usize]
                };
                let gx =
                    -p(-1, -1) - 2.0 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2.0 * p(1, 0) + p(1, 1);
                let gy =
                    -p(-1, -1) - 2.0 * p(0, -1) - p(1, -1) + p(-1, 1) + 2.0 * p(0, 1) + p(1, 1);
                edges[y * w + x] = (gx * gx + gy * gy).sqrt() > threshold;
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::new(3, 2);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        img.set(2, 1, 7.0);
        assert_eq!(img.get(2, 1), 7.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn from_fn_row_major() {
        let img = GrayImage::from_fn(2, 2, |x, y| (10 * y + x) as f64);
        assert_eq!(img.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let img = GrayImage::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "buffer size must match")]
    fn from_vec_validates() {
        let _ = GrayImage::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn min_max_and_mean() {
        let img = GrayImage::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(img.min_max(), (1.0, 4.0));
        assert_eq!(img.mean(), 2.5);
    }

    #[test]
    fn sobel_detects_vertical_step() {
        // Left half 0, right half 1: vertical edge at the boundary column.
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let edges = img.sobel_edges(1.0);
        // Columns 3 and 4 straddle the step.
        assert!(edges[3 * 8 + 3] || edges[3 * 8 + 4]);
        // Far from the step: no edges.
        assert!(!edges[3 * 8 + 1]);
        assert!(!edges[3 * 8 + 6]);
        // Border pixels are never edges.
        assert!(!edges[0]);
    }

    #[test]
    fn pgm_serialisation() {
        let img = GrayImage::from_vec(2, 2, vec![0.0, 0.5, 0.75, 1.0]);
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n2 2\n255\n"));
        let pixels = &pgm[pgm.len() - 4..];
        assert_eq!(pixels, &[0, 128, 191, 255]);
    }

    #[test]
    fn pgm_roundtrip_to_disk() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x * y) as f64);
        let path =
            std::env::temp_dir().join(format!("ihw_quality_pgm_test_{}.pgm", std::process::id()));
        img.write_pgm(&path).expect("writes");
        let bytes = std::fs::read(&path).expect("reads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(bytes, img.to_pgm());
    }

    #[test]
    fn sobel_flat_image_no_edges() {
        let img = GrayImage::from_fn(6, 6, |_, _| 3.3);
        assert!(img.sobel_edges(0.1).iter().all(|&e| !e));
    }
}
