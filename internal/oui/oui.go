// Package oui provides the vendor registry used by the wardrive
// study: organizationally-unique-identifier prefixes for every vendor
// in the paper's Table 2, MAC→vendor resolution, and the exact device
// census the large-scale experiment reproduces (1,523 clients from
// 147 vendors and 3,805 APs from 94 vendors).
package oui

import (
	"crypto/sha1"
	"fmt"
	"sort"

	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
)

// wellKnown maps the named Table 2 vendors to a representative real
// OUI prefix for realism; every other vendor gets a deterministic
// synthetic prefix.
var wellKnown = map[string]dot11.OUI{
	"Apple":        {0xf0, 0x18, 0x98},
	"Google":       {0xf4, 0xf5, 0xd8},
	"Intel":        {0x00, 0x1b, 0x77},
	"Hitron":       {0x68, 0x8f, 0x2e},
	"HP":           {0x3c, 0xd9, 0x2b},
	"Samsung":      {0x8c, 0x71, 0xf8},
	"Espressif":    {0xec, 0xfa, 0xbc},
	"Hon Hai":      {0x00, 0x1c, 0x26},
	"Amazon":       {0x44, 0x65, 0x0d},
	"Sagemcom":     {0x18, 0x62, 0x2c},
	"Liteon":       {0x20, 0x68, 0x9d},
	"AzureWave":    {0x74, 0xc6, 0x3b},
	"Sonos":        {0x5c, 0xaa, 0xfd},
	"Nest Labs":    {0x18, 0xb4, 0x30},
	"Murata":       {0x00, 0x26, 0xe8},
	"Belkin":       {0x94, 0x10, 0x3e},
	"TP-LINK":      {0x50, 0xc7, 0xbf},
	"Cisco":        {0x00, 0x1e, 0x14},
	"ecobee":       {0x44, 0x61, 0x32},
	"Microsoft":    {0x28, 0x18, 0x78},
	"Technicolor":  {0xfc, 0x52, 0x8d},
	"eero":         {0xf8, 0xbb, 0xbf},
	"Extreme N.":   {0x00, 0x04, 0x96},
	"D-Link":       {0x1c, 0x7e, 0xe5},
	"NETGEAR":      {0xa0, 0x40, 0xa0},
	"ASUSTek":      {0x2c, 0x56, 0xdc},
	"Aruba":        {0x24, 0xde, 0xc6},
	"SmartRG":      {0xd4, 0x04, 0xcd},
	"Ubiquiti N.":  {0x78, 0x8a, 0x20},
	"Zebra":        {0x48, 0xa4, 0x93},
	"Pegatron":     {0x60, 0x02, 0x92},
	"Mitsumi":      {0x00, 0x0b, 0x23},
	"Qualcomm":     {0x00, 0xa0, 0xc6},
	"Realtek":      {0x00, 0xe0, 0x4c},
	"Marvell":      {0x00, 0x50, 0x43},
	"Atheros":      {0x00, 0x03, 0x7f},
	"Ecobee3":      {0x44, 0x61, 0x33},
	"Logitech":     {0x00, 0x07, 0xee},
	"Blink":        {0x8c, 0x4c, 0xad},
	"MediaTek":     {0x00, 0x0c, 0xe7},
	"Broadcom":     {0x00, 0x10, 0x18},
	"Ruckus":       {0x24, 0xc9, 0xa1},
	"Mikrotik":     {0x4c, 0x5e, 0x0c},
	"Zyxel":        {0x5c, 0xe2, 0x8c},
	"Arris":        {0xfc, 0x91, 0x14},
	"Actiontec":    {0x10, 0x78, 0x5b},
	"Huawei":       {0x00, 0x18, 0x82},
	"Xiaomi":       {0x64, 0x09, 0x80},
	"LG":           {0x58, 0xa2, 0xb5},
	"Sony":         {0x30, 0x52, 0xcb},
	"Roku":         {0xb0, 0xa7, 0x37},
	"Wyze":         {0x2c, 0xaa, 0x8e},
	"Ring":         {0x34, 0x3e, 0xa4},
	"GoPro":        {0xd4, 0xd9, 0x19},
	"Garmin":       {0x10, 0xc6, 0xfc},
	"Nintendo":     {0x00, 0x1f, 0x32},
	"Canon":        {0x00, 0x1e, 0x8f},
	"Epson":        {0x64, 0xeb, 0x8c},
	"Brother":      {0x00, 0x80, 0x77},
	"Dell":         {0x18, 0xa9, 0x9b},
	"Lenovo":       {0x50, 0x7b, 0x9d},
	"Acer":         {0xc0, 0x98, 0x79},
	"Toshiba":      {0x00, 0x15, 0xb7},
	"Vizio":        {0xc4, 0xe0, 0x32},
	"Ecovacs":      {0xa0, 0x60, 0x90},
	"iRobot":       {0x50, 0x14, 0x79},
	"Honeywell":    {0x00, 0x40, 0x84},
	"Chamberlain":  {0x64, 0x52, 0x99},
	"Rachio":       {0x74, 0xc2, 0x46},
	"Lutron":       {0xb0, 0xce, 0x18},
	"Philips Hue":  {0x00, 0x17, 0x88},
	"Tuya":         {0x68, 0x57, 0x2d},
	"Shenzhen RF":  {0x00, 0x0e, 0xe8},
	"Quanta":       {0x00, 0x26, 0x9e},
	"Compal":       {0x00, 0x16, 0xd4},
	"Wistron":      {0x00, 0x16, 0xcf},
	"Universal E.": {0x48, 0x1d, 0x70},
	"Humax":        {0x00, 0x03, 0x78},
	"Vantiva":      {0x14, 0xed, 0xbb},
	"Calix":        {0x00, 0x25, 0x6d},
	"Adtran":       {0x00, 0xa0, 0xc8},
	"Plume":        {0x38, 0x8a, 0x06},
	"Airties":      {0x18, 0x28, 0x61},
}

// DB resolves MAC addresses to vendor names and mints addresses for
// the population generator.
type DB struct {
	byOUI    map[dot11.OUI]string
	byVendor map[string][]dot11.OUI
}

// NewDB builds the registry with the well-known prefixes preloaded.
func NewDB() *DB {
	db := &DB{
		byOUI:    make(map[dot11.OUI]string),
		byVendor: make(map[string][]dot11.OUI),
	}
	names := make([]string, 0, len(wellKnown))
	for name := range wellKnown {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		db.add(name, wellKnown[name])
	}
	return db
}

func (db *DB) add(vendor string, o dot11.OUI) {
	if _, taken := db.byOUI[o]; taken {
		panic(fmt.Sprintf("oui: prefix %s already registered", o))
	}
	db.byOUI[o] = vendor
	db.byVendor[vendor] = append(db.byVendor[vendor], o)
}

// Register ensures the vendor exists, deriving a deterministic
// synthetic OUI when it is not a well-known one. Registering an
// existing vendor is a no-op. It returns the vendor's first prefix.
func (db *DB) Register(vendor string) dot11.OUI {
	if ouis, ok := db.byVendor[vendor]; ok {
		return ouis[0]
	}
	// Derive a stable unicast, globally-administered prefix from the
	// vendor name; bump until unique.
	sum := sha1.Sum([]byte(vendor))
	o := dot11.OUI{sum[0] &^ 0x03, sum[1], sum[2]}
	for {
		if _, taken := db.byOUI[o]; !taken {
			break
		}
		o[2]++
	}
	db.add(vendor, o)
	return o
}

// MintMAC creates a fresh device address for the vendor using the
// given random stream. The caller is responsible for deduplication
// (collisions in a 24-bit space across a few thousand devices are
// vanishingly rare but the wardrive world checks anyway).
func (db *DB) MintMAC(vendor string, rng *eventsim.RNG) dot11.MAC {
	o := db.Register(vendor)
	return o.WithSuffix(uint32(rng.Int63() & 0xffffff))
}

// CensusEntry is one vendor row of the Table 2 population.
type CensusEntry struct {
	Vendor string
	Count  int
}

// clientTop20 and apTop20 are the named rows of Table 2.
var clientTop20 = []CensusEntry{
	{"Apple", 143}, {"Google", 102}, {"Intel", 66}, {"Hitron", 65},
	{"HP", 63}, {"Samsung", 56}, {"Espressif", 47}, {"Hon Hai", 46},
	{"Amazon", 41}, {"Sagemcom", 38}, {"Liteon", 33}, {"AzureWave", 30},
	{"Sonos", 30}, {"Nest Labs", 27}, {"Murata", 24}, {"Belkin", 20},
	{"TP-LINK", 20}, {"Cisco", 16}, {"ecobee", 13}, {"Microsoft", 13},
}

var apTop20 = []CensusEntry{
	{"Hitron", 723}, {"Sagemcom", 601}, {"Technicolor", 410}, {"eero", 195},
	{"Extreme N.", 188}, {"Cisco", 156}, {"HP", 104}, {"TP-LINK", 101},
	{"Google", 80}, {"D-Link", 75}, {"NETGEAR", 69}, {"ASUSTek", 51},
	{"Aruba", 46}, {"SmartRG", 44}, {"Ubiquiti N.", 35}, {"Zebra", 35},
	{"Pegatron", 28}, {"Belkin", 25}, {"Mitsumi", 25}, {"Apple", 19},
}

// Totals from the paper's study.
const (
	// TotalClients is the number of client devices found (§3).
	TotalClients = 1523
	// TotalAPs is the number of access points found (§3).
	TotalAPs = 3805
	// ClientVendors is the number of distinct client vendors (§3).
	ClientVendors = 147
	// APVendors is the number of distinct AP vendors (§3).
	APVendors = 94
	// TotalDevices is the total census size (§3).
	TotalDevices = TotalClients + TotalAPs
	// TotalVendors is the number of distinct vendors overall (§3).
	TotalVendors = 186
)

// expandOthers distributes `others` devices across `vendors` synthetic
// vendors with a deterministic, roughly geometric tail so the head of
// the tail looks like real long-tail census data. Every synthetic
// vendor gets at least one device.
func expandOthers(prefix string, others, vendors int) []CensusEntry {
	out := make([]CensusEntry, vendors)
	counts := make([]int, vendors)
	remaining := others - vendors
	for i := range counts {
		counts[i] = 1
	}
	// Distribute the remainder proportionally to 1/(i+2) weights.
	var wsum float64
	weights := make([]float64, vendors)
	for i := range weights {
		weights[i] = 1 / float64(i+2)
		wsum += weights[i]
	}
	given := 0
	for i := range counts {
		extra := int(float64(remaining) * weights[i] / wsum)
		counts[i] += extra
		given += extra
	}
	// Hand out rounding leftovers one by one from the front.
	for i := 0; given < remaining; i = (i + 1) % vendors {
		counts[i]++
		given++
	}
	for i := range out {
		out[i] = CensusEntry{
			Vendor: fmt.Sprintf("%s-%03d", prefix, i+1),
			Count:  counts[i],
		}
	}
	return out
}

// ClientCensus returns the full client population: the 20 named
// vendors plus a synthetic long tail, summing to exactly 1,523
// devices across exactly 147 vendors.
func ClientCensus() []CensusEntry {
	named := 0
	for _, e := range clientTop20 {
		named += e.Count
	}
	out := append([]CensusEntry(nil), clientTop20...)
	return append(out, expandOthers("ClientVendor", TotalClients-named, ClientVendors-len(clientTop20))...)
}

// APCensus returns the full AP population: 20 named vendors plus the
// synthetic tail, summing to exactly 3,805 APs across 94 vendors.
func APCensus() []CensusEntry {
	named := 0
	for _, e := range apTop20 {
		named += e.Count
	}
	out := append([]CensusEntry(nil), apTop20...)
	return append(out, expandOthers("APVendor", TotalAPs-named, APVendors-len(apTop20))...)
}
