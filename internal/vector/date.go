package vector

import "fmt"

// Date arithmetic over the int32 days-since-epoch representation used by
// TDate columns. The conversions use the proleptic Gregorian calendar via
// Howard Hinnant's civil-days algorithm, which is exact over the TPC-H date
// range and avoids time.Time allocation in scan and expression inner loops.

// DateFromYMD returns days since 1970-01-01 for the given civil date.
func DateFromYMD(y, m, d int) int32 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400 // [0, 399]
	var mp int
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1            // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return int32(era*146097 + doe - 719468)
}

// YMDFromDate converts days since 1970-01-01 back to a civil date.
func YMDFromDate(days int32) (y, m, d int) {
	z := int(days) + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y = yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return
}

// ParseDate parses "YYYY-MM-DD" into days since epoch.
func ParseDate(s string) (int32, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("vector: bad date %q", s)
	}
	num := func(sub string) (int, bool) {
		n := 0
		for i := 0; i < len(sub); i++ {
			c := sub[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	y, ok1 := num(s[0:4])
	m, ok2 := num(s[5:7])
	d, ok3 := num(s[8:10])
	if !ok1 || !ok2 || !ok3 || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("vector: bad date %q", s)
	}
	return DateFromYMD(y, m, d), nil
}

// MustDate is ParseDate for literals known to be valid; it panics on error.
func MustDate(s string) int32 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders days since epoch as "YYYY-MM-DD".
func FormatDate(days int32) string {
	y, m, d := YMDFromDate(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// FormatDecimal renders a Decimal value (scaled by 100) as "-123.45".
func FormatDecimal(v int64) string {
	sign, u := "", uint64(v)
	if v < 0 {
		sign, u = "-", -u
	}
	return fmt.Sprintf("%s%d.%02d", sign, u/100, u%100)
}

// yearShiftEras is the number of 400-year eras (146097 days each) YearOf
// adds so that every int32 date counts non-negative days: its divisions
// then need no floor correction.
const yearShiftEras = 14700

// YearOf returns the civil year of the date: YMDFromDate's year of era
// without the month and day, whose only use here is that January and
// February (day of a March-based year >= 306) close the previous civil year.
func YearOf(days int32) int32 {
	z := uint64(int64(days) + 719468 + yearShiftEras*146097)
	era := z / 146097
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	y := int64(yoe) + (int64(era)-yearShiftEras)*400
	if doy >= 306 {
		y++
	}
	return int32(y)
}

// AddMonths shifts a date by n months, clamping the day to the target
// month's length (SQL interval semantics).
func AddMonths(days int32, n int) int32 {
	y, m, d := YMDFromDate(days)
	tot := y*12 + (m - 1) + n
	ny, nm := tot/12, tot%12
	if nm < 0 {
		nm += 12
		ny--
	}
	nm++ // back to 1-based
	if dim := daysInMonth(ny, nm); d > dim {
		d = dim
	}
	return DateFromYMD(ny, nm, d)
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if (y%4 == 0 && y%100 != 0) || y%400 == 0 {
			return 29
		}
		return 28
	}
}
