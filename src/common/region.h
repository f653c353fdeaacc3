// Rectangular pixel region [x0, x0+width) x [y0, y0+height).
#pragma once

#include "common/types.h"

namespace sarbp {

struct Region {
  Index x0 = 0;
  Index y0 = 0;
  Index width = 0;
  Index height = 0;

  [[nodiscard]] Index pixels() const { return width * height; }
  [[nodiscard]] bool empty() const { return width <= 0 || height <= 0; }
  [[nodiscard]] bool contains(Index x, Index y) const {
    return x >= x0 && x < x0 + width && y >= y0 && y < y0 + height;
  }
  /// True when the region is non-empty and lies inside a grid_width x
  /// grid_height grid. The origin is checked first, then each extent
  /// against the room left past it, so no end coordinate is formed and no
  /// sum or difference can overflow, whatever the grid's extents.
  [[nodiscard]] bool inside(Index grid_width, Index grid_height) const {
    return !empty() && x0 >= 0 && y0 >= 0 && x0 <= grid_width &&
           y0 <= grid_height && width <= grid_width - x0 &&
           height <= grid_height - y0;
  }

  friend bool operator==(const Region&, const Region&) = default;
};

}  // namespace sarbp
