#pragma once

#include <string>
#include <vector>

namespace xmp::stats {

/// Plain-text time-series chart for bench output ("figures" a terminal can
/// show). Series are drawn with per-series glyphs over a fixed-size grid;
/// values are clamped to [y_min, y_max].
class AsciiChart {
 public:
  struct Series {
    std::string name;
    std::vector<double> values;
    char glyph = '*';
  };

  struct Options {
    int rows = 12;
    int cols = 72;       ///< plot width; longer series are downsampled
    double y_min = 0.0;
    double y_max = 1.0;
    std::string y_label;  ///< printed above the axis
  };

  /// Render the chart with legend and y-axis labels.
  [[nodiscard]] static std::string render(const std::vector<Series>& series,
                                          const Options& opts);
};

}  // namespace xmp::stats
