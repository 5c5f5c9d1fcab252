package radio

// Additional link profiles. Table I of the paper names Wi-Fi, LTE and 5G as
// possible wireless LANs (SRSSI_W) and Bluetooth beside Wi-Fi Direct as
// peer-to-peer networks (SRSSI_P); the evaluation testbed uses Wi-Fi and
// Wi-Fi Direct, and these profiles let the simulator cover the rest of the
// taxonomy. Rates are effective goodput in megabytes/second; powers are the
// interface's system-level draw on a phone.

// LTE returns a cellular wide-area link: lower goodput and markedly higher
// transmit power than Wi-Fi (cellular PAs dominate phone radio budgets),
// with a longer RTT through the carrier core network.
func LTE() *Link {
	return &Link{
		Kind:         WLAN,
		BaseRateMBps: 3.5,
		BaseTXW:      2.80,
		BaseRXW:      1.80,
		IdleW:        0.45,
		RTTSeconds:   0.045,
	}
}

// FiveG returns a 5G (sub-6 GHz) link: Wi-Fi-class goodput with cellular
// power characteristics and a shorter core-network RTT than LTE.
func FiveG() *Link {
	return &Link{
		Kind:         WLAN,
		BaseRateMBps: 12,
		BaseTXW:      3.00,
		BaseRXW:      2.00,
		IdleW:        0.55,
		RTTSeconds:   0.022,
	}
}

// Bluetooth returns a Bluetooth (BR/EDR-class) peer-to-peer link: very low
// power but two orders of magnitude less goodput than Wi-Fi Direct — fine
// for MobileBERT-sized payloads, hopeless for camera frames.
func Bluetooth() *Link {
	return &Link{
		Kind:         P2P,
		BaseRateMBps: 0.25,
		BaseTXW:      0.15,
		BaseRXW:      0.12,
		IdleW:        0.03,
		RTTSeconds:   0.030,
	}
}
