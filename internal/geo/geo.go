// Package geo provides the small amount of spherical geometry needed by
// the road-network substrate: WGS84 points, great-circle distances,
// bearings and bounding boxes.
//
// Distances are returned in meters. The package deliberately avoids any
// projection library; an equirectangular local approximation is provided
// for fast neighbourhood queries where sub-meter accuracy is irrelevant.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by all great-circle math.
const EarthRadiusMeters = 6371008.8

// Point is a WGS84 coordinate in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the legal WGS84 range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	la1, lo1 := radians(a.Lat), radians(a.Lon)
	la2, lo2 := radians(b.Lat), radians(b.Lon)
	dLat := la2 - la1
	dLon := lo2 - lo1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// ApproxDistance returns the equirectangular-approximation distance between
// a and b in meters. It is within ~0.5% of Haversine for spans under ~100km
// and is roughly 4x faster; use it for spatial-index pruning only.
func ApproxDistance(a, b Point) float64 {
	x := radians(b.Lon-a.Lon) * math.Cos(radians((a.Lat+b.Lat)/2))
	y := radians(b.Lat - a.Lat)
	return math.Sqrt(x*x+y*y) * EarthRadiusMeters
}

// Destination returns the point reached by travelling distMeters from p on
// the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, distMeters float64) Point {
	la1, lo1 := radians(p.Lat), radians(p.Lon)
	brg := radians(bearingDeg)
	ad := distMeters / EarthRadiusMeters
	la2 := math.Asin(math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(math.Sin(brg)*math.Sin(ad)*math.Cos(la1),
		math.Cos(ad)-math.Sin(la1)*math.Sin(la2))
	lon := degrees(lo2)
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return Point{Lat: degrees(la2), Lon: lon}
}

// BBox is a latitude/longitude axis-aligned bounding box. It does not
// handle antimeridian wrapping; road networks in this project never do.
type BBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// EmptyBBox returns a box that contains nothing and extends under Extend.
func EmptyBBox() BBox {
	return BBox{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
}

// Extend grows the box to include p and returns the grown box.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Contains reports whether p lies inside or on the border of the box.
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box midpoint.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Empty reports whether the box contains no points.
func (b BBox) Empty() bool {
	return b.MinLat > b.MaxLat || b.MinLon > b.MaxLon
}

// DiagonalMeters returns the haversine length of the box diagonal, or 0
// for an empty box.
func (b BBox) DiagonalMeters() float64 {
	if b.Empty() {
		return 0
	}
	return Haversine(Point{b.MinLat, b.MinLon}, Point{b.MaxLat, b.MaxLon})
}
