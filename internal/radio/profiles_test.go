package radio

import "testing"

func TestAllProfilesValidate(t *testing.T) {
	for name, l := range map[string]*Link{
		"wifi":        WiFi(),
		"wifi-direct": WiFiDirect(),
		"lte":         LTE(),
		"5g":          FiveG(),
		"bluetooth":   Bluetooth(),
	} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCellularCharacteristics(t *testing.T) {
	wifi, lte, fiveG := WiFi(), LTE(), FiveG()
	// Cellular PAs draw more than Wi-Fi on transmit.
	if lte.BaseTXW <= wifi.BaseTXW || fiveG.BaseTXW <= wifi.BaseTXW {
		t.Error("cellular transmit power must exceed Wi-Fi")
	}
	// LTE is slower than Wi-Fi; 5G sits between.
	if lte.BaseRateMBps >= wifi.BaseRateMBps {
		t.Error("LTE goodput must be below Wi-Fi")
	}
	if fiveG.BaseRateMBps <= lte.BaseRateMBps {
		t.Error("5G goodput must exceed LTE")
	}
	// Core-network RTTs exceed the local AP path.
	if lte.RTTSeconds <= wifi.RTTSeconds {
		t.Error("LTE RTT must exceed Wi-Fi")
	}
}

func TestBluetoothCharacteristics(t *testing.T) {
	bt, wd := Bluetooth(), WiFiDirect()
	if bt.Kind != P2P {
		t.Error("Bluetooth is a peer-to-peer link")
	}
	if bt.BaseTXW >= wd.BaseTXW {
		t.Error("Bluetooth must draw less than Wi-Fi Direct")
	}
	if bt.BaseRateMBps >= wd.BaseRateMBps/10 {
		t.Error("Bluetooth goodput must be far below Wi-Fi Direct")
	}
	// A 150 KB camera frame takes impractically long over Bluetooth...
	if bt.TransferSeconds(150e3, RegularRSSI) < 0.5 {
		t.Error("camera frames over Bluetooth should be slow")
	}
	// ...while a MobileBERT-sized payload remains interactive.
	if bt.TransferSeconds(1024, RegularRSSI) > 0.05 {
		t.Error("small payloads over Bluetooth should stay interactive")
	}
}
